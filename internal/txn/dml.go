package txn

import (
	"fmt"
	"sort"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/sqlparse"
	"urel/internal/store"
	"urel/internal/ws"
)

// This file turns DML statements into commit ops by running ordinary
// relational plans over the current snapshot — the paper's claim that
// U-relations are just relations, carried to the write path:
//
//   - INSERT ... VALUES appends certain rows (empty ws-descriptor) to
//     every vertical partition of the relation under fresh tuple ids;
//   - INSERT ... SELECT evaluates the source query on the
//     representation (tuple-level translation) and appends its rows,
//     descriptors preserved, under fresh tuple ids;
//   - DELETE evaluates σ_φ over the merged representation of the
//     relation (Figure 4's merge: partitions joined on tuple id with
//     consistent descriptors) and tombstones, per partition, every
//     contributing representation row — i.e. it removes the tuples
//     that possibly satisfy φ, in all of those rows' worlds;
//   - UPDATE is DELETE plus reinsertion of the matched rows with the
//     assigned attributes replaced (same tuple ids and descriptors),
//     restricted to the partitions covering an assigned attribute.
//
// Matching assumes a valid database (Definition 2.2): partitions
// sharing an attribute agree on its value in shared worlds, so the
// merged row determines every partition row's values.
//
// A statement keeps the relation's existence-complete bit
// (core.URelSet.ExistenceComplete) only where it provably holds after
// it. INSERT writes each new tuple into every partition under one
// descriptor, so it always does. DELETE and UPDATE do when every
// matched row's merged descriptor is empty: the statement then acts on
// whole tuples, in every world and every partition. Any other DELETE or
// UPDATE of a relation with the bit adds a clear op to its record.

// buildOps translates one DML statement into ops against the given
// snapshot. maxTID supplies the per-relation tuple-id allocator floor;
// layerGen reports each partition's current file-layer count (the
// scope recorded on tombstone batches).
func buildOps(udb *core.UDB, maxTID map[string]int64, layerGen func(partKey) int,
	st sqlparse.Statement) ([]store.WALOp, *Result, error) {
	switch s := st.(type) {
	case *sqlparse.InsertStmt:
		return buildInsert(udb, maxTID, s)
	case *sqlparse.DeleteStmt:
		return buildDelete(udb, layerGen, s)
	case *sqlparse.UpdateStmt:
		return buildUpdate(udb, layerGen, s)
	default:
		return nil, nil, fmt.Errorf("txn: unsupported statement %T", st)
	}
}

// resolveCols validates an explicit column list (or defaults to the
// relation's full attribute list) and returns, per column, its index
// in the relation's attribute order.
func resolveCols(rs *core.URelSet, rel string, cols []string) ([]int, error) {
	if len(cols) == 0 {
		out := make([]int, len(rs.Attrs))
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	out := make([]int, len(cols))
	seen := map[string]bool{}
	for i, c := range cols {
		if seen[c] {
			return nil, fmt.Errorf("txn: column %q listed twice", c)
		}
		seen[c] = true
		idx := -1
		for ai, a := range rs.Attrs {
			if a == c {
				idx = ai
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("txn: relation %q has no attribute %q", rel, c)
		}
		out[i] = idx
	}
	return out, nil
}

func buildInsert(udb *core.UDB, maxTID map[string]int64, st *sqlparse.InsertStmt) ([]store.WALOp, *Result, error) {
	rs, ok := udb.Rels[st.Table]
	if !ok {
		return nil, nil, fmt.Errorf("txn: unknown relation %q", st.Table)
	}
	colIdx, err := resolveCols(rs, st.Table, st.Cols)
	if err != nil {
		return nil, nil, err
	}

	// Source rows: literal VALUES tuples (certain), or a query result
	// (descriptors preserved).
	type srcRow struct {
		d    ws.Descriptor
		vals []engine.Value // in colIdx order
	}
	var src []srcRow
	switch {
	case st.Select == nil:
		for _, row := range st.Rows {
			if len(row) != len(colIdx) {
				return nil, nil, fmt.Errorf("txn: INSERT expects %d values, got %d", len(colIdx), len(row))
			}
			src = append(src, srcRow{vals: row})
		}
	case st.Select.Mode == sqlparse.ModePossible:
		rel, err := udb.EvalPoss(st.Select.Query, engine.ExecConfig{})
		if err != nil {
			return nil, nil, err
		}
		if rel.Sch.Len() != len(colIdx) {
			return nil, nil, fmt.Errorf("txn: INSERT expects %d columns, SELECT produces %d", len(colIdx), rel.Sch.Len())
		}
		for _, t := range rel.Rows {
			src = append(src, srcRow{vals: t})
		}
	default:
		res, err := udb.Eval(st.Select.Query, engine.ExecConfig{})
		if err != nil {
			return nil, nil, err
		}
		if len(res.Attrs) != len(colIdx) {
			return nil, nil, fmt.Errorf("txn: INSERT expects %d columns, SELECT produces %d", len(colIdx), len(res.Attrs))
		}
		for _, r := range res.Rows {
			src = append(src, srcRow{d: r.D, vals: r.Vals})
		}
	}

	// Scatter each source row across the relation's partitions under a
	// fresh tuple id; unlisted attributes insert as NULL. The partition
	// attribute -> relation attribute mapping is loop-invariant, so it
	// is resolved once, not per row.
	relIdx := map[string]int{}
	for ai, a := range rs.Attrs {
		relIdx[a] = ai
	}
	partAttrIdx := make([][]int, len(rs.Parts))
	for pi, p := range rs.Parts {
		partAttrIdx[pi] = make([]int, len(p.Attrs))
		for vi, a := range p.Attrs {
			partAttrIdx[pi][vi] = relIdx[a]
		}
	}
	next := maxTID[st.Table]
	perPart := make([][]core.URow, len(rs.Parts))
	for i, sr := range src {
		tid := next + int64(i) + 1
		full := make([]engine.Value, len(rs.Attrs))
		for fi := range full {
			full[fi] = engine.Null()
		}
		for ci, ai := range colIdx {
			full[ai] = sr.vals[ci]
		}
		for pi := range rs.Parts {
			idx := partAttrIdx[pi]
			vals := make([]engine.Value, len(idx))
			for vi, ai := range idx {
				vals[vi] = full[ai]
			}
			perPart[pi] = append(perPart[pi], core.URow{D: sr.d, TID: tid, Vals: vals})
		}
	}
	var ops []store.WALOp
	repr := 0
	for pi, rows := range perPart {
		if len(rows) != len(src) {
			return nil, nil, fmt.Errorf("txn: internal: insert writes %d of %d tuples into %s partition %d; existence-completeness needs them all", len(rows), len(src), st.Table, pi)
		}
		if len(rows) == 0 {
			continue
		}
		repr += len(rows)
		ops = append(ops, store.WALOp{Rel: st.Table, Part: pi, Rows: rows})
	}
	return ops, &Result{Kind: "insert", Tuples: len(src), ReprRows: repr}, nil
}

// matchPlan evaluates σ_where over the relation's full merged
// representation and returns the raw (undecoded) result together with
// the layout and the merge's partition picks — everything needed to
// recover each contributing partition row's own descriptor.
type matchResult struct {
	rel     *engine.Relation
	tidIdx  int
	attrIdx map[string]int // relation attribute -> result column
	picks   []pick
}

type pick struct {
	pidx    int
	pairIdx [][2]int // (var, rng) result columns per descriptor slot
}

func matchPlan(udb *core.UDB, table string, where engine.Expr) (*matchResult, error) {
	rs, ok := udb.Rels[table]
	if !ok {
		return nil, fmt.Errorf("txn: unknown relation %q", table)
	}
	var q core.Query = core.Rel(table)
	if where != nil {
		q = core.Select(q, where)
	}
	plan, lay, err := udb.TranslateFull(q)
	if err != nil {
		return nil, err
	}
	rel, err := engine.Run(plan, engine.NewCatalog(), engine.ExecConfig{})
	if err != nil {
		return nil, err
	}
	out := &matchResult{rel: rel, attrIdx: map[string]int{}}
	out.tidIdx = rel.Sch.IndexOf(lay.TIDs[0])
	if out.tidIdx < 0 {
		return nil, fmt.Errorf("txn: internal: tid column %q missing from match result", lay.TIDs[0])
	}
	for _, a := range rs.Attrs {
		idx := rel.Sch.IndexOf(table + "." + a)
		if idx < 0 {
			return nil, fmt.Errorf("txn: internal: attribute column %q missing from match result", table+"."+a)
		}
		out.attrIdx[a] = idx
	}
	// The translation reports which partitions its merge included and
	// their descriptor-pair columns (ULayout.Picks) — the single source
	// of truth, so the write path can never diverge from the cover the
	// plan actually used. Column resolution failures are loud.
	if len(lay.Picks) == 0 {
		return nil, fmt.Errorf("txn: internal: translation of %s reported no partition picks", table)
	}
	for _, lp := range lay.Picks {
		pk := pick{pidx: lp.Part}
		for _, dp := range lp.DPairs {
			vi := rel.Sch.IndexOf(dp[0])
			ri := rel.Sch.IndexOf(dp[1])
			if vi < 0 || ri < 0 {
				return nil, fmt.Errorf("txn: internal: descriptor columns %v of %s partition %d missing from match result", dp, table, lp.Part)
			}
			pk.pairIdx = append(pk.pairIdx, [2]int{vi, ri})
		}
		out.picks = append(out.picks, pk)
	}
	return out, nil
}

// rowDescriptor decodes one pick's padded descriptor from a match row.
func rowDescriptor(row engine.Tuple, pairIdx [][2]int) (ws.Descriptor, error) {
	var assigns []ws.Assignment
	for _, pr := range pairIdx {
		x := ws.Var(row[pr[0]].I)
		if x == ws.TrivialVar {
			continue
		}
		assigns = append(assigns, ws.A(x, ws.Val(row[pr[1]].I)))
	}
	return ws.NewDescriptor(assigns...)
}

// tombAcc accumulates one partition's deduplicated tombstones (and,
// for UPDATE, the matching reinserts) keyed by tuple id — no string
// keys or descriptor formatting on the hot write path.
type tombAcc struct {
	byTID map[int64]*tidTombs
	n     int
}

type tidTombs struct {
	wild bool
	ds   []ws.Descriptor
	rows []core.URow // UPDATE reinserts, parallel to ds
}

func newTombAcc() *tombAcc { return &tombAcc{byTID: map[int64]*tidTombs{}} }

// addWild records a wildcard tombstone for the tuple id.
func (a *tombAcc) addWild(tid int64) {
	tt := a.byTID[tid]
	if tt == nil {
		tt = &tidTombs{}
		a.byTID[tid] = tt
	}
	if !tt.wild {
		tt.wild = true
		a.n++
	}
}

// add records a descriptor-exact tombstone; it reports whether the
// identity was new (so UPDATE appends exactly one reinsert per row).
func (a *tombAcc) add(tid int64, d ws.Descriptor) bool {
	tt := a.byTID[tid]
	if tt == nil {
		tt = &tidTombs{}
		a.byTID[tid] = tt
	}
	for _, e := range tt.ds {
		if store.DescriptorEqual(e, d) {
			return false
		}
	}
	tt.ds = append(tt.ds, d)
	a.n++
	return true
}

// flatten produces the sorted tombstone batch (and the reinsert rows,
// when any were recorded).
func (a *tombAcc) flatten() ([]store.WALTomb, []core.URow) {
	tombs := make([]store.WALTomb, 0, a.n)
	var rows []core.URow
	for tid, tt := range a.byTID {
		if tt.wild {
			tombs = append(tombs, store.WALTomb{TID: tid, Wild: true})
		}
		for _, d := range tt.ds {
			tombs = append(tombs, store.WALTomb{TID: tid, D: d})
		}
		rows = append(rows, tt.rows...)
	}
	sortTombs(tombs)
	sortURowsStable(rows)
	return tombs, rows
}

func buildDelete(udb *core.UDB, layerGen func(partKey) int, st *sqlparse.DeleteStmt) ([]store.WALOp, *Result, error) {
	rs := udb.Rels[st.Table]
	m, err := matchPlan(udb, st.Table, st.Where)
	if err != nil {
		return nil, nil, err
	}
	perPart := make([]*tombAcc, len(rs.Parts))
	for i := range perPart {
		perPart[i] = newTombAcc()
	}
	picked := map[int]bool{}
	for _, pk := range m.picks {
		picked[pk.pidx] = true
	}
	tids := map[int64]bool{}
	whole := true
	for _, row := range m.rel.Rows {
		tid := row[m.tidIdx].I
		tids[tid] = true
		for _, pk := range m.picks {
			d, err := rowDescriptor(row, pk.pairIdx)
			if err != nil {
				return nil, nil, fmt.Errorf("txn: delete: %v", err)
			}
			perPart[pk.pidx].add(tid, d)
			whole = whole && len(d) == 0
		}
		// Partitions the merge skipped (their attributes fully covered
		// elsewhere) still hold rows of the tuple: wildcard them.
		for pidx := range rs.Parts {
			if !picked[pidx] {
				perPart[pidx].addWild(tid)
			}
		}
	}
	ops, nTombs := tombOps(st.Table, perPart, layerGen)
	ops = append(ops, existenceOps(rs, st.Table, whole)...)
	return ops, &Result{Kind: "delete", Tuples: len(tids), Tombstones: nTombs}, nil
}

func buildUpdate(udb *core.UDB, layerGen func(partKey) int, st *sqlparse.UpdateStmt) ([]store.WALOp, *Result, error) {
	rs, ok := udb.Rels[st.Table]
	if !ok {
		return nil, nil, fmt.Errorf("txn: unknown relation %q", st.Table)
	}
	set := map[string]engine.Value{}
	for _, sc := range st.Set {
		found := false
		for _, a := range rs.Attrs {
			if a == sc.Col {
				found = true
				break
			}
		}
		if !found {
			return nil, nil, fmt.Errorf("txn: relation %q has no attribute %q", st.Table, sc.Col)
		}
		if _, dup := set[sc.Col]; dup {
			return nil, nil, fmt.Errorf("txn: attribute %q assigned twice", sc.Col)
		}
		set[sc.Col] = sc.Val
	}
	touches := func(p *core.URelation) bool {
		for _, a := range p.Attrs {
			if _, ok := set[a]; ok {
				return true
			}
		}
		return false
	}

	m, err := matchPlan(udb, st.Table, st.Where)
	if err != nil {
		return nil, nil, err
	}
	perPart := make([]*tombAcc, len(rs.Parts))
	for i := range perPart {
		perPart[i] = newTombAcc()
	}
	picked := map[int]bool{}
	for _, pk := range m.picks {
		picked[pk.pidx] = true
	}
	tids := map[int64]bool{}
	whole := true
	for _, row := range m.rel.Rows {
		tid := row[m.tidIdx].I
		tids[tid] = true
		for _, pk := range m.picks {
			d, err := rowDescriptor(row, pk.pairIdx)
			if err != nil {
				return nil, nil, fmt.Errorf("txn: update: %v", err)
			}
			whole = whole && len(d) == 0
			p := rs.Parts[pk.pidx]
			if !touches(p) {
				continue
			}
			if !perPart[pk.pidx].add(tid, d) {
				continue // join multiplicity: already tombstoned + reinserted
			}
			vals := make([]engine.Value, len(p.Attrs))
			for vi, a := range p.Attrs {
				if nv, ok := set[a]; ok {
					vals[vi] = nv
				} else {
					vals[vi] = row[m.attrIdx[a]]
				}
			}
			tt := perPart[pk.pidx].byTID[tid]
			tt.rows = append(tt.rows, core.URow{D: d, TID: tid, Vals: vals})
		}
		// A skipped partition covering an assigned attribute would keep
		// serving the old value: wildcard-delete its rows for the tuple.
		// (Its attributes are covered by a picked partition, so the
		// updated values remain fully represented — but that partition
		// no longer holds the tuple.)
		for pidx, p := range rs.Parts {
			if picked[pidx] || !touches(p) {
				continue
			}
			perPart[pidx].addWild(tid)
			whole = false
		}
	}
	ops, nTombs := tombOps(st.Table, perPart, layerGen)
	ops = append(ops, existenceOps(rs, st.Table, whole)...)
	// Attach each partition's reinserts as a follow-up insert op
	// (tombstones must apply first — see PartDelta.ApplyOp).
	repr := 0
	reprByPart := map[int][]core.URow{}
	for pidx, acc := range perPart {
		_, rows := acc.flatten()
		if len(rows) > 0 {
			reprByPart[pidx] = rows
			repr += len(rows)
		}
	}
	for pidx := 0; pidx < len(rs.Parts); pidx++ {
		if rows, ok := reprByPart[pidx]; ok {
			ops = append(ops, store.WALOp{Rel: st.Table, Part: pidx, Rows: rows})
		}
	}
	return ops, &Result{Kind: "update", Tuples: len(tids), ReprRows: repr, Tombstones: nTombs}, nil
}

// existenceOps returns the clear op a DELETE or UPDATE of rel adds to
// its record: one when the relation has the existence-complete bit, more
// than one partition (one partition alone always says when its tuples
// exist) and the statement did not act on whole tuples only.
func existenceOps(rs *core.URelSet, rel string, whole bool) []store.WALOp {
	if whole || !rs.ExistenceComplete || len(rs.Parts) <= 1 {
		return nil
	}
	return []store.WALOp{{Rel: rel, ClearsExistence: true}}
}

// tombOps flattens per-partition tombstone accumulators into ops
// (stable order: by tid, then descriptor), one batch per partition.
func tombOps(rel string, perPart []*tombAcc, layerGen func(partKey) int) ([]store.WALOp, int) {
	var ops []store.WALOp
	n := 0
	for pidx, acc := range perPart {
		if acc.n == 0 {
			continue
		}
		batch, _ := acc.flatten()
		n += len(batch)
		ops = append(ops, store.WALOp{Rel: rel, Part: pidx, Tombs: batch, Gen: layerGen(partKey{rel, pidx})})
	}
	return ops, n
}

func lessDescriptor(a, b ws.Descriptor) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i].Var != b[i].Var {
				return a[i].Var < b[i].Var
			}
			return a[i].Val < b[i].Val
		}
	}
	return len(a) < len(b)
}

func sortTombs(ts []store.WALTomb) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		if a.Wild != b.Wild {
			return !a.Wild
		}
		return lessDescriptor(a.D, b.D)
	})
}

func sortURowsStable(rows []core.URow) {
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].TID != rows[j].TID {
			return rows[i].TID < rows[j].TID
		}
		return lessDescriptor(rows[i].D, rows[j].D)
	})
}

// Applier executes DML statements directly against a materialized
// in-memory database: the same op translation as the persistent write
// path, applied straight to the partition rows. Like the persistent
// store, its tuple-id allocator is monotonic across statements —
// deleting the highest tuple never recycles its id — so a statement
// sequence applied here is the exact reference semantics for the same
// sequence executed durably (the round-trip and crash-recovery
// property tests compare against it).
type Applier struct {
	db     *core.UDB
	maxTID map[string]int64
}

// NewApplier seeds an applier's tuple-id allocator from the database's
// current rows. The database must be materialized.
func NewApplier(db *core.UDB) (*Applier, error) {
	a := &Applier{db: db, maxTID: map[string]int64{}}
	for _, rel := range db.RelNames() {
		rs := db.Rels[rel]
		for _, p := range rs.Parts {
			if p.Back != nil {
				return nil, fmt.Errorf("txn: Apply requires a materialized database (partition %s is storage-backed)", p.Name)
			}
			for _, r := range p.Rows {
				if r.TID > a.maxTID[rel] {
					a.maxTID[rel] = r.TID
				}
			}
		}
	}
	return a, nil
}

// Apply executes one statement in place.
func (a *Applier) Apply(st sqlparse.Statement) (*Result, error) {
	if _, ok := st.(*sqlparse.Parsed); ok {
		return nil, fmt.Errorf("%w: txn: Apply wants a DML statement; run queries with EvalPoss/Eval", ErrStatement)
	}
	ops, res, err := buildOps(a.db, a.maxTID, func(partKey) int { return 0 }, st)
	if err != nil {
		return nil, err
	}
	for _, o := range ops {
		if o.ClearsExistence {
			a.db.Rels[o.Rel].ExistenceComplete = false
			continue
		}
		u := a.db.Rels[o.Rel].Parts[o.Part]
		if len(o.Tombs) > 0 {
			b := store.NewTombBatch(o.Tombs, 0)
			kept := u.Rows[:0:len(u.Rows)]
			for _, r := range u.Rows {
				if b.Matches(r.TID, r.D) {
					continue
				}
				kept = append(kept, r)
			}
			u.Rows = kept
		}
		u.Rows = append(u.Rows, o.Rows...)
		u.RowsChanged() // kept + appended can be as many rows at the same address
		for _, r := range o.Rows {
			if r.TID > a.maxTID[o.Rel] {
				a.maxTID[o.Rel] = r.TID
			}
		}
	}
	return res, nil
}

// Apply executes one DML statement against a materialized in-memory
// database (a fresh Applier per call: tuple ids restart above the
// current maximum stored id).
func Apply(db *core.UDB, st sqlparse.Statement) (*Result, error) {
	a, err := NewApplier(db)
	if err != nil {
		return nil, err
	}
	return a.Apply(st)
}
