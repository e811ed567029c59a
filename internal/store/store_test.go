package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// vehiclesDB builds the paper's Figure 1 running example with one
// probabilistic variable, exercising multi-partition relations.
func vehiclesDB(t *testing.T) *core.UDB {
	t.Helper()
	db := core.NewUDB()
	db.MustAddRelation("r", "id", "type", "faction")
	x := db.W.NewBoolVar("x")
	y := db.W.NewBoolVar("y")
	z := db.W.NewBoolVar("z")
	if err := db.W.SetProbs(z, []float64{0.3, 0.7}); err != nil {
		t.Fatal(err)
	}
	uid := db.MustAddPartition("r", "u_r_id", "id")
	uty := db.MustAddPartition("r", "u_r_type", "type")
	ufa := db.MustAddPartition("r", "u_r_faction", "faction")
	uid.Add(nil, 1, engine.Int(1))
	uid.Add(ws.MustDescriptor(ws.A(x, 1)), 2, engine.Int(2))
	uid.Add(ws.MustDescriptor(ws.A(x, 2)), 2, engine.Int(3))
	uid.Add(ws.MustDescriptor(ws.A(x, 1)), 3, engine.Int(3))
	uid.Add(ws.MustDescriptor(ws.A(x, 2)), 3, engine.Int(2))
	uid.Add(nil, 4, engine.Int(4))
	uty.Add(nil, 1, engine.Str("Tank"))
	uty.Add(nil, 2, engine.Str("Transport"))
	uty.Add(nil, 3, engine.Str("Tank"))
	uty.Add(ws.MustDescriptor(ws.A(y, 1)), 4, engine.Str("Tank"))
	uty.Add(ws.MustDescriptor(ws.A(y, 2)), 4, engine.Str("Transport"))
	ufa.Add(nil, 1, engine.Str("Friend"))
	ufa.Add(nil, 2, engine.Str("Friend"))
	ufa.Add(nil, 3, engine.Str("Enemy"))
	ufa.Add(ws.MustDescriptor(ws.A(z, 1)), 4, engine.Str("Friend"))
	ufa.Add(ws.MustDescriptor(ws.A(z, 2)), 4, engine.Str("Enemy"))
	return db
}

func sortedRows(rows []core.URow) []core.URow {
	out := append([]core.URow(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].TID != out[j].TID {
			return out[i].TID < out[j].TID
		}
		return out[i].D.String() < out[j].D.String()
	})
	return out
}

func TestSaveOpenVehicles(t *testing.T) {
	mem := vehiclesDB(t)
	dir := t.TempDir()
	if err := Save(mem, dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	stored, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer stored.Close()

	// Structure round-trips.
	if got, want := stored.RelNames(), mem.RelNames(); len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("RelNames = %v, want %v", got, want)
	}
	if stored.W.NumWorlds().Int64() != 8 {
		t.Fatalf("want 8 worlds, got %v", stored.W.NumWorlds())
	}
	if p := stored.W.Prob(3, 2); p != 0.7 {
		t.Fatalf("probability lost: %g", p)
	}
	for pi, p := range stored.Rels["r"].Parts {
		memPart := mem.Rels["r"].Parts[pi]
		if p.Back == nil {
			t.Fatalf("partition %s not storage-backed", p.Name)
		}
		if p.NumRows() != len(memPart.Rows) {
			t.Fatalf("%s: NumRows = %d, want %d", p.Name, p.NumRows(), len(memPart.Rows))
		}
	}

	// Queries agree.
	q := core.Poss(core.Project(core.Select(core.Rel("r"),
		engine.And(
			engine.Cmp(engine.EQ, engine.Col("type"), engine.ConstStr("Tank")),
			engine.Cmp(engine.EQ, engine.Col("faction"), engine.ConstStr("Enemy")))), "id"))
	want, err := mem.EvalPoss(q, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := stored.EvalPoss(q, engine.ExecConfig{})
	if err != nil {
		t.Fatalf("stored EvalPoss: %v", err)
	}
	if !got.EqualAsSet(want) {
		t.Fatalf("stored answers differ:\ngot\n%s\nwant\n%s", got, want)
	}

	// Row-reading representation algorithms refuse to run on a lazy
	// database instead of silently seeing empty partitions.
	if err := stored.Validate(); err == nil || !strings.Contains(err.Error(), "Materialize") {
		t.Fatalf("Validate on a backed database: err = %v, want materialization guard", err)
	}
	if _, err := stored.Normalize(); err == nil || !strings.Contains(err.Error(), "Materialize") {
		t.Fatalf("Normalize on a backed database: err = %v, want materialization guard", err)
	}

	// Materializing detaches from the directory and restores the rows.
	if err := stored.Materialize(); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	for pi, p := range stored.Rels["r"].Parts {
		if p.Back != nil {
			t.Fatalf("%s still backed after Materialize", p.Name)
		}
		got, want := sortedRows(p.Rows), sortedRows(mem.Rels["r"].Parts[pi].Rows)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", p.Name, len(got), len(want))
		}
		for i := range got {
			if !urowsEqual(got[i], want[i]) {
				t.Fatalf("%s row %d: got %v, want %v", p.Name, i, got[i], want[i])
			}
		}
	}
	if err := stored.Validate(); err != nil {
		t.Fatalf("materialized database invalid: %v", err)
	}
}

func TestOpenMissingAndPartialSnapshot(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("Open of empty directory should fail")
	}
	// A crashed save (no catalog yet) must not open.
	mem := vehiclesDB(t)
	dir := t.TempDir()
	if err := Save(mem, dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, CatalogName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open without catalog should fail")
	}
}

// randomDB builds a randomized database: random schema, partitioning,
// kinds, descriptors, and nulls.
func randomDB(rng *rand.Rand) *core.UDB {
	db := core.NewUDB()
	var vars []ws.Var
	for i := 0; i < 4; i++ {
		vars = append(vars, db.W.MustNewVar("", 1, 2, 3))
	}
	kindGens := []func() engine.Value{
		func() engine.Value { return engine.Int(int64(rng.Intn(40))) },
		func() engine.Value { return engine.Float(float64(rng.Intn(40)) / 4) },
		func() engine.Value { return engine.Str(string(rune('a' + rng.Intn(6)))) },
	}
	nrel := 1 + rng.Intn(2)
	for ri := 0; ri < nrel; ri++ {
		nattr := 2 + rng.Intn(3)
		attrs := make([]string, nattr)
		gens := make([]func() engine.Value, nattr)
		for ai := range attrs {
			attrs[ai] = string(rune('a' + ai))
			gens[ai] = kindGens[rng.Intn(len(kindGens))]
		}
		name := string(rune('r' + ri))
		db.MustAddRelation(name, attrs...)
		// Split the attributes over one or two partitions.
		cut := nattr
		if nattr > 1 && rng.Intn(2) == 0 {
			cut = 1 + rng.Intn(nattr-1)
		}
		groups := [][]string{attrs[:cut]}
		if cut < nattr {
			groups = append(groups, attrs[cut:])
		}
		n := rng.Intn(120)
		for gi, group := range groups {
			u := db.MustAddPartition(name, "", group...)
			lo := 0
			for ai, a := range attrs {
				if a == group[0] {
					lo = ai
					break
				}
			}
			for tid := 0; tid < n; tid++ {
				var d ws.Descriptor
				for _, x := range vars {
					if rng.Intn(3) == 0 {
						d2, ok := d.Union(ws.MustDescriptor(ws.A(x, ws.Val(1+rng.Intn(3)))))
						if ok {
							d = d2
						}
					}
				}
				vals := make([]engine.Value, len(group))
				for vi := range vals {
					if rng.Intn(10) == 0 {
						vals[vi] = engine.Null()
					} else {
						vals[vi] = gens[lo+vi]()
					}
				}
				u.Add(d, int64(tid), vals...)
			}
			_ = gi
		}
	}
	return db
}

// TestSaveOpenQueryProperty is the roundtrip property test: for
// randomized databases, a saved-and-reopened database must (a)
// materialize back to the exact original rows and (b) answer random
// selection/projection queries identically to the in-memory original —
// multiset-equal at the representation level and set-equal after poss.
func TestSaveOpenQueryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 20; iter++ {
		mem := randomDB(rng)
		dir := t.TempDir()
		if err := Save(mem, dir); err != nil {
			t.Fatalf("iter %d: Save: %v", iter, err)
		}
		stored, err := Open(dir)
		if err != nil {
			t.Fatalf("iter %d: Open: %v", iter, err)
		}

		for _, relName := range mem.RelNames() {
			attrs := mem.Rels[relName].Attrs
			// A random conjunctive range predicate on the first attribute.
			cond := engine.Or(
				engine.Cmp(engine.LT, engine.Col(attrs[0]), engine.ConstInt(int64(rng.Intn(30)))),
				engine.Cmp(engine.EQ, engine.Col(attrs[0]), engine.ConstStr("c")),
			)
			proj := attrs[:1+rng.Intn(len(attrs))]
			inner := core.Project(core.Select(core.Rel(relName), cond), proj...)

			// Representation level: multiset equality.
			memPlan, _, err := mem.Translate(inner)
			if err != nil {
				t.Fatalf("iter %d: translate mem: %v", iter, err)
			}
			memRel, err := engine.Run(memPlan, engine.NewCatalog(), engine.ExecConfig{})
			if err != nil {
				t.Fatalf("iter %d: run mem: %v", iter, err)
			}
			stPlan, _, err := stored.Translate(inner)
			if err != nil {
				t.Fatalf("iter %d: translate stored: %v", iter, err)
			}
			stRel, err := engine.Run(stPlan, engine.NewCatalog(), engine.ExecConfig{})
			if err != nil {
				t.Fatalf("iter %d: run stored: %v", iter, err)
			}
			if !memRel.EqualAsBag(stRel) {
				t.Fatalf("iter %d rel %s: representation results differ (%d vs %d rows)",
					iter, relName, memRel.Len(), stRel.Len())
			}

			// poss level: set equality.
			q := core.Poss(inner)
			want, err := mem.EvalPoss(q, engine.ExecConfig{})
			if err != nil {
				t.Fatalf("iter %d: mem EvalPoss: %v", iter, err)
			}
			got, err := stored.EvalPoss(q, engine.ExecConfig{})
			if err != nil {
				t.Fatalf("iter %d: stored EvalPoss: %v", iter, err)
			}
			if !want.EqualAsSet(got) {
				t.Fatalf("iter %d rel %s: poss answers differ:\ngot\n%s\nwant\n%s",
					iter, relName, got, want)
			}
		}

		// Materialized rows equal the original exactly.
		if err := stored.Materialize(); err != nil {
			t.Fatalf("iter %d: Materialize: %v", iter, err)
		}
		for _, relName := range mem.RelNames() {
			for pi, p := range stored.Rels[relName].Parts {
				want := mem.Rels[relName].Parts[pi].Rows
				if len(p.Rows) != len(want) {
					t.Fatalf("iter %d: %s: %d rows, want %d", iter, p.Name, len(p.Rows), len(want))
				}
				for i := range want {
					if !urowsEqual(p.Rows[i], want[i]) {
						t.Fatalf("iter %d: %s row %d: got %v, want %v", iter, p.Name, i, p.Rows[i], want[i])
					}
				}
			}
		}
		stored.Close()
	}
}
