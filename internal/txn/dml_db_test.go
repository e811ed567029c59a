package txn

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/sqlparse"
	"urel/internal/store"
	"urel/internal/ws"
)

// fixtureDB builds a small uncertain database exercising the write
// path's corner cases: r has overlapping partitions (b is covered
// three times, so the merge skips u_r_b and deletes must wildcard it),
// certain and uncertain tuples, and a second relation s for
// INSERT ... SELECT.
func fixtureDB() *core.UDB {
	db := core.NewUDB()
	db.MustAddRelation("r", "a", "b", "c")
	pab := db.MustAddPartition("r", "u_r_ab", "a", "b")
	pbc := db.MustAddPartition("r", "u_r_bc", "b", "c")
	pb := db.MustAddPartition("r", "u_r_b", "b")
	db.MustAddRelation("s", "x", "y")
	ps := db.MustAddPartition("s", "u_s", "x", "y")

	x := db.W.NewBoolVar("x1")
	y := db.W.MustNewVar("y1", 1, 2, 3)

	// tid 1: fully certain.
	pab.Add(nil, 1, engine.Int(1), engine.Int(10))
	pbc.Add(nil, 1, engine.Int(10), engine.Int(100))
	pb.Add(nil, 1, engine.Int(10))
	// tid 2: b uncertain via x (a shared by both alternatives).
	pab.Add(ws.MustDescriptor(ws.A(x, 1)), 2, engine.Int(2), engine.Int(20))
	pab.Add(ws.MustDescriptor(ws.A(x, 2)), 2, engine.Int(2), engine.Int(21))
	pbc.Add(ws.MustDescriptor(ws.A(x, 1)), 2, engine.Int(20), engine.Int(200))
	pbc.Add(ws.MustDescriptor(ws.A(x, 2)), 2, engine.Int(21), engine.Int(201))
	pb.Add(ws.MustDescriptor(ws.A(x, 1)), 2, engine.Int(20))
	pb.Add(ws.MustDescriptor(ws.A(x, 2)), 2, engine.Int(21))
	// tid 3: c uncertain via y.
	pab.Add(nil, 3, engine.Int(3), engine.Int(30))
	for i := 1; i <= 3; i++ {
		pbc.Add(ws.MustDescriptor(ws.A(y, ws.Val(i))), 3, engine.Int(30), engine.Int(int64(300+i)))
	}
	pb.Add(nil, 3, engine.Int(30))

	for i := int64(1); i <= 4; i++ {
		ps.Add(nil, i, engine.Int(i), engine.Int(2*i))
	}
	// Every partition's rows of a tuple cover the same worlds (all of
	// them), which TestFixtureIsExistenceComplete checks.
	db.Rels["r"].ExistenceComplete = true
	db.Rels["s"].ExistenceComplete = true
	return db
}

// dump canonicalizes every partition's live rows for multiset
// comparison (storage-backed partitions are loaded through their
// backing, so tombstones and layers collapse to live rows).
func dump(t *testing.T, db *core.UDB) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, rel := range db.RelNames() {
		for pi, p := range db.Rels[rel].Parts {
			rows := p.Rows
			if p.Back != nil {
				var err error
				rows, err = p.Back.Load()
				if err != nil {
					t.Fatal(err)
				}
			}
			key := fmt.Sprintf("%s/%d", rel, pi)
			ss := make([]string, len(rows))
			for i, r := range rows {
				ss[i] = fmt.Sprintf("%s|%d|%s", r.D, r.TID, engine.KeyString(r.Vals))
			}
			sort.Strings(ss)
			out[key] = ss
		}
	}
	return out
}

func equalDump(a, b map[string][]string) (string, bool) {
	if len(a) != len(b) {
		return "partition sets differ", false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok {
			return "missing partition " + k, false
		}
		if len(av) != len(bv) {
			return fmt.Sprintf("%s: %d vs %d rows", k, len(av), len(bv)), false
		}
		for i := range av {
			if av[i] != bv[i] {
				return fmt.Sprintf("%s row %d: %q vs %q", k, i, av[i], bv[i]), false
			}
		}
	}
	return "", true
}

// requireSame asserts the persistent store and the in-memory reference
// hold multiset-equal representations, partition by partition, and the
// same existence-complete bits, which hold wherever they are set; and
// that the store's answers in every mode, by Translate and by
// TranslateFull, are the worlds' (checkAnswers) — among them merges of
// r's partitions whose hash joins probe the store's column batches as
// the snapshot has them: tombstoned segments, the memtable tail,
// flushed layers.
func requireSame(t *testing.T, d *DB, ref *refDB, when string) {
	t.Helper()
	snap := d.Snapshot()
	if msg, ok := equalDump(dump(t, snap), dump(t, ref.db)); !ok {
		t.Fatalf("%s: store and reference diverged: %s", when, msg)
	}
	for _, rel := range snap.RelNames() {
		got, want := snap.Rels[rel].ExistenceComplete, ref.db.Rels[rel].ExistenceComplete
		if got != want {
			t.Fatalf("%s: %s has the existence-complete bit %v in the store, %v in the reference", when, rel, got, want)
		}
		if want {
			if err := ref.db.CheckExistenceComplete(rel); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
		}
	}
	checkAnswers(t, when, snap, ref.db)
}

// refDB pairs the in-memory reference database with its stateful
// applier (the tuple-id allocator is monotonic, like the store's).
type refDB struct {
	db  *core.UDB
	app *Applier
}

// exec applies the statement to both the persistent store and the
// in-memory reference, asserting they report the same effect.
func exec(t *testing.T, d *DB, ref *refDB, sql string) *Result {
	t.Helper()
	st, err := sqlparse.ParseStatement(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	got, err := d.ExecStmt(st)
	if err != nil {
		t.Fatalf("exec %s: %v", sql, err)
	}
	want, err := ref.app.Apply(st)
	if err != nil {
		t.Fatalf("apply %s: %v", sql, err)
	}
	if got.Kind != want.Kind || got.Tuples != want.Tuples || got.ReprRows != want.ReprRows || got.Tombstones != want.Tombstones {
		t.Fatalf("%s: store reported %+v, reference %+v", sql, got, want)
	}
	return got
}

func openFixture(t *testing.T) (*DB, *refDB) {
	t.Helper()
	base := fixtureDB()
	refUDB := base.Clone()
	app, err := NewApplier(refUDB)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := store.Save(base, dir); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, Options{DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, &refDB{db: refUDB, app: app}
}

func possRows(t *testing.T, db *core.UDB, q core.Query) []string {
	t.Helper()
	rel, err := db.EvalPoss(q, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, rel.Len())
	for i, r := range rel.Rows {
		out[i] = engine.KeyString(r)
	}
	sort.Strings(out)
	return out
}

func TestInsertValues(t *testing.T) {
	d, ref := openFixture(t)
	res := exec(t, d, ref, "insert into r (a, b) values (7, 70), (8, 80)")
	if res.Tuples != 2 || res.ReprRows != 6 { // 2 tuples × 3 partitions
		t.Fatalf("res = %+v", res)
	}
	if res.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2 (open publishes 1)", res.Epoch)
	}
	requireSame(t, d, ref, "after insert")

	// The inserted tuples are certain, a/b set, c NULL.
	got := possRows(t, d.Snapshot(), core.Select(core.Rel("r"),
		engine.Cmp(engine.GE, engine.Col("a"), engine.ConstInt(7))))
	if len(got) != 2 {
		t.Fatalf("possible answers = %v", got)
	}
}

func TestInsertSelect(t *testing.T) {
	d, ref := openFixture(t)
	exec(t, d, ref, "insert into s (x, y) select y, x from s where x <= 2")
	requireSame(t, d, ref, "after insert-select")
	got := possRows(t, d.Snapshot(), core.Rel("s"))
	if len(got) != 6 {
		t.Fatalf("s has %d possible tuples, want 6", len(got))
	}

	// Descriptor-preserving: copying the uncertain attribute b of r
	// into s keeps the alternatives mutually exclusive.
	exec(t, d, ref, "insert into s (x, y) select a, b from r where a = 2")
	requireSame(t, d, ref, "after uncertain insert-select")
	snap := d.Snapshot()
	ures, err := snap.Eval(core.Select(core.Rel("s"),
		engine.Cmp(engine.EQ, engine.Col("x"), engine.ConstInt(2))), engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	nonEmptyD := 0
	for _, r := range ures.Rows {
		if len(r.D) > 0 {
			nonEmptyD++
		}
	}
	if nonEmptyD != 2 {
		t.Fatalf("expected 2 uncertain representation rows in s, got %d", nonEmptyD)
	}
}

func TestDeleteTombstonesAllPartitions(t *testing.T) {
	d, ref := openFixture(t)
	// b = 21 possibly holds only for tid 2's x=2 alternative.
	res := exec(t, d, ref, "delete from r where b = 21")
	if res.Tuples != 1 {
		t.Fatalf("res = %+v", res)
	}
	requireSame(t, d, ref, "after delete")
	got := possRows(t, d.Snapshot(), core.Select(core.Rel("r"),
		engine.Cmp(engine.EQ, engine.Col("a"), engine.ConstInt(2))))
	want := []string{engine.KeyString(engine.Tuple{engine.Int(2), engine.Int(20), engine.Int(200)})}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("after delete, possible tid-2 tuples = %v", got)
	}

	// Unconditional delete empties the relation (and the redundant
	// partition via wildcards).
	exec(t, d, ref, "delete from r")
	requireSame(t, d, ref, "after delete all")
	if n := len(possRows(t, d.Snapshot(), core.Rel("r"))); n != 0 {
		t.Fatalf("r still has %d possible tuples", n)
	}
	// s is untouched.
	if n := len(possRows(t, d.Snapshot(), core.Rel("s"))); n != 4 {
		t.Fatalf("s has %d possible tuples, want 4", n)
	}
}

func TestUpdateOverlappingPartitions(t *testing.T) {
	d, ref := openFixture(t)
	// b is covered by all three partitions of r; the update must keep
	// them consistent (reinsert into picked ones, wildcard the skipped
	// redundant one).
	exec(t, d, ref, "update r set b = 55 where a = 2")
	requireSame(t, d, ref, "after update b")
	got := possRows(t, d.Snapshot(), core.Select(core.Rel("r"),
		engine.Cmp(engine.EQ, engine.Col("a"), engine.ConstInt(2))))
	want := []string{
		engine.KeyString(engine.Tuple{engine.Int(2), engine.Int(55), engine.Int(200)}),
		engine.KeyString(engine.Tuple{engine.Int(2), engine.Int(55), engine.Int(201)}),
	}
	sort.Strings(want)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("after update, possible tid-2 tuples = %v, want %v", got, want)
	}

	// Updating c touches only u_r_bc; the uncertain alternatives keep
	// their descriptors but all get the new value.
	exec(t, d, ref, "update r set c = 999 where a = 3")
	requireSame(t, d, ref, "after update c")
	got = possRows(t, d.Snapshot(), core.Select(core.Rel("r"),
		engine.Cmp(engine.EQ, engine.Col("a"), engine.ConstInt(3))))
	if len(got) != 1 {
		t.Fatalf("after update c, possible tid-3 tuples = %v", got)
	}
	// Validate the database is still well-formed (Definition 2.2).
	snap := d.Snapshot().Clone()
	if err := snap.Materialize(); err != nil {
		t.Fatal(err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("database invalid after updates: %v", err)
	}
}

func TestUpdateAfterDeleteSurvives(t *testing.T) {
	// The regression the layer-scoped tombstones exist for: an UPDATE's
	// reinsert shares (tid, descriptor) with its tombstone; flushing
	// afterwards must not shadow the flushed reinsert, and a second
	// update must still see it.
	d, ref := openFixture(t)
	exec(t, d, ref, "update r set b = 11 where a = 1")
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	requireSame(t, d, ref, "after update+flush")
	exec(t, d, ref, "update r set b = 12 where a = 1")
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	requireSame(t, d, ref, "after second update+flush")
	got := possRows(t, d.Snapshot(), core.Select(core.Rel("r"),
		engine.Cmp(engine.EQ, engine.Col("a"), engine.ConstInt(1))))
	want := engine.KeyString(engine.Tuple{engine.Int(1), engine.Int(12), engine.Int(100)})
	if len(got) != 1 || got[0] != want {
		t.Fatalf("tuple 1 after updates = %v", got)
	}
}

func TestExecErrors(t *testing.T) {
	d, _ := openFixture(t)
	for _, sql := range []string{
		"insert into nosuch values (1)",
		"insert into r (a, nope) values (1, 2)",
		"insert into r (a, a) values (1, 2)",
		"insert into r (a) values (1, 2)",
		"insert into s (x, y) select x from s",
		"delete from nosuch",
		"update r set nope = 1",
		"update r set a = 1, a = 2",
		"delete from r where nosuchcol = 1",
		"select a from r",
	} {
		if _, err := d.Exec(sql); err == nil {
			t.Errorf("Exec(%q) succeeded, want error", sql)
		}
	}
	// Errors must not have bumped the epoch or corrupted state.
	if d.Epoch() != 1 {
		t.Fatalf("failed statements changed the epoch to %d", d.Epoch())
	}
}

func TestDeleteMatchingNothingIsNoop(t *testing.T) {
	d, ref := openFixture(t)
	st0 := d.Stats()
	res := exec(t, d, ref, "delete from r where a = 12345")
	if res.Tuples != 0 || res.Tombstones != 0 {
		t.Fatalf("res = %+v", res)
	}
	st1 := d.Stats()
	if st1.Epoch != st0.Epoch || st1.WALBytes != st0.WALBytes {
		t.Fatal("no-op delete must not commit anything")
	}
}

func TestApplyRejectsQueries(t *testing.T) {
	db := fixtureDB()
	st, err := sqlparse.ParseStatement("select a from r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(db, st); err == nil || !strings.Contains(err.Error(), "DML statement") {
		t.Fatalf("Apply accepted a query (or gave an unhelpful error): %v", err)
	}
}
