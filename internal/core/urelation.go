package core

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"urel/internal/engine"
	"urel/internal/ws"
)

// URow is one tuple of a U-relation: ws-descriptor, tuple id, and the
// values of the partition's attributes.
type URow struct {
	D    ws.Descriptor
	TID  int64
	Vals []engine.Value
}

// Backing provides lazy, segment-backed access to a partition's rows.
// It is implemented by the persistent store (internal/store): a
// URelation with a non-nil Back keeps Rows empty and is scanned
// straight from storage at query time, segment by segment, instead of
// being materialized up front. Backed partitions are read-only.
type Backing interface {
	// NumRows returns the stored row count.
	NumRows() int
	// DescriptorWidth returns the stored (padded) ws-descriptor width.
	DescriptorWidth() int
	// AttrKinds returns the engine column kind of each value attribute
	// (KindNull for columns with no single stored kind).
	AttrKinds() []engine.Kind
	// ScanPlan returns a leaf plan producing the partition in the
	// U-layout encoding: width (var, rng) descriptor pairs, one tuple-id
	// column, then the attributes selected by attrIdx (indexes into the
	// partition's attribute list), under sch's column names.
	ScanPlan(sch engine.Schema, width int, attrIdx []int, name string) engine.Plan
	// Load materializes every stored row (for validation, cloning, and
	// representation-level algorithms that need the full partition).
	Load() ([]URow, error)
	// SizeBytes reports the on-storage footprint.
	SizeBytes() int64
}

// URelation is one vertical partition U[D; T; B] of a logical relation.
type URelation struct {
	Name    string   // representation-level name, e.g. "u_r_type"
	RelName string   // logical relation this partitions
	Attrs   []string // value attributes B (unqualified logical names)
	// Rows are the partition's tuples. Queries read them through an
	// encoded copy that is kept from one query to the next, so code that
	// changes them any other way than through Add — assigns the slice,
	// rewrites a row in place — calls RowsChanged afterwards.
	Rows []URow
	// Back, when non-nil, backs this partition with lazily scanned
	// storage; Rows stays empty until Materialize is called.
	Back Backing

	// img is Rows encoded for the engine, and what planning derives from
	// them; see image. The lock makes concurrent queries share one build.
	imgMu sync.Mutex
	img   *image
}

// image is an in-memory partition encoded for the engine, once and not
// once per query: its rows as the columns of the positional U-layout —
// 2·width descriptor columns, the tuple id, every attribute — which
// every leaf over the partition scans as they are, in windows, under
// its own column names, together with what else a leaf asks of them. It
// belongs to the Rows it was built from: RowsChanged drops it, and so
// does a slice header that no longer matches, for the outside
// `u.Rows = …` that forgot to say so.
type image struct {
	n     int           // len(Rows) at the build …
	first *URow         // … and where they started
	width int           // widest descriptor, the encoding width
	kinds []engine.Kind // per attribute: its first non-null value's

	// cols are shared by every query between two changes of the
	// partition; like all column payloads the engine moves they are
	// read-only.
	cols []engine.ColVec

	statsOnce sync.Once
	stats     *engine.TableStats // per column of cols; see tableStats

	runMu sync.Mutex
	runs  [][]int32 // per column of cols, nil until built; see run
}

// run returns the value-order run of column c (engine.ValueOrder),
// which the first query whose key list reaches the column builds and
// the image keeps: it is built once per image, not per query, and
// dropped with it. The lock makes concurrent queries share one build.
func (img *image) run(c int) []int32 {
	img.runMu.Lock()
	defer img.runMu.Unlock()
	if img.runs[c] == nil {
		img.runs[c] = engine.ValueOrder(&img.cols[c])
	}
	return img.runs[c]
}

// describes reports whether the image was built from rows as they are
// now, as far as the slice header can tell.
func (img *image) describes(rows []URow) bool {
	if img.n != len(rows) {
		return false
	}
	return img.n == 0 || img.first == &rows[0]
}

// auditImage, when set, sees every image a query is about to reuse. Only
// tests set it: theirs encodes the partition again and fails on any
// difference, which is what a missed RowsChanged or a consumer writing
// into a shared row looks like.
var auditImage func(u *URelation, img *image)

// image returns the partition's current image, building it on the first
// use after a change.
func (u *URelation) image() *image {
	u.imgMu.Lock()
	defer u.imgMu.Unlock()
	if u.img != nil && u.img.describes(u.Rows) {
		if auditImage != nil {
			auditImage(u, u.img)
		}
		return u.img
	}
	u.img = u.buildImage()
	return u.img
}

func (u *URelation) buildImage() *image {
	img := &image{n: len(u.Rows), width: descriptorWidth(u.Rows), kinds: make([]engine.Kind, len(u.Attrs))}
	if img.n > 0 {
		img.first = &u.Rows[0]
	}
	for ai := range u.Attrs {
		for _, r := range u.Rows {
			if !r.Vals[ai].IsNull() {
				img.kinds[ai] = r.Vals[ai].K
				break
			}
		}
	}
	img.cols = EncodeRows(u.Rows, img.width, len(u.Attrs))
	img.runs = make([][]int32, len(img.cols))
	return img
}

// RowsChanged tells the partition that Rows were changed behind its
// back — assigned, or rewritten in place, where neither length nor
// address need show it (an UPDATE deletes k rows and appends k). The
// next query encodes them afresh and takes fresh statistics.
func (u *URelation) RowsChanged() {
	u.imgMu.Lock()
	u.img = nil
	u.imgMu.Unlock()
}

// Add appends a tuple (descriptor, tuple id, attribute values).
func (u *URelation) Add(d ws.Descriptor, tid int64, vals ...engine.Value) {
	if u.Back != nil {
		panic(fmt.Sprintf("core: %s: cannot add rows to a storage-backed partition (Materialize first)", u.Name))
	}
	if len(vals) != len(u.Attrs) {
		panic(fmt.Sprintf("core: %s: %d values for attrs %v", u.Name, len(vals), u.Attrs))
	}
	u.Rows = append(u.Rows, URow{D: d, TID: tid, Vals: vals})
	u.RowsChanged()
}

// NumRows returns the row count, consulting the backing for lazy
// partitions.
func (u *URelation) NumRows() int {
	if u.Back != nil {
		return u.Back.NumRows()
	}
	return len(u.Rows)
}

// MaxDescriptorWidth returns the largest descriptor size in the
// partition (its encoding width).
func (u *URelation) MaxDescriptorWidth() int {
	if u.Back != nil {
		return u.Back.DescriptorWidth()
	}
	u.imgMu.Lock()
	img := u.img
	u.imgMu.Unlock()
	if img != nil && img.describes(u.Rows) {
		return img.width
	}
	return descriptorWidth(u.Rows)
}

func descriptorWidth(rows []URow) int {
	w := 0
	for _, r := range rows {
		if len(r.D) > w {
			w = len(r.D)
		}
	}
	return w
}

// SizeBytes estimates the representation footprint of the partition:
// each row stores its (padded) descriptor, tuple id, and values.
// Backed partitions report their storage footprint.
func (u *URelation) SizeBytes() int64 {
	if u.Back != nil {
		return u.Back.SizeBytes()
	}
	w := u.MaxDescriptorWidth()
	var n int64
	for _, r := range u.Rows {
		n += int64(w)*18 + 9 // descriptor pairs + tid
		for _, v := range r.Vals {
			n += int64(v.SizeBytes())
		}
	}
	return n
}

// Materialize loads a backed partition's rows into memory and detaches
// the backing; it is a no-op for in-memory partitions.
func (u *URelation) Materialize() error {
	if u.Back == nil {
		return nil
	}
	rows, err := u.Back.Load()
	if err != nil {
		return fmt.Errorf("core: materialize %s: %w", u.Name, err)
	}
	u.Rows = rows
	u.Back = nil
	u.RowsChanged()
	return nil
}

// Clone deep-copies the partition. A backed partition shares its
// read-only storage backing instead of duplicating it — so closing the
// backing (UDB.Close) on any one clone releases it for all of them. The
// copy starts without an image and takes its own statistics.
func (u *URelation) Clone() *URelation {
	out := &URelation{Name: u.Name, RelName: u.RelName, Attrs: append([]string(nil), u.Attrs...), Back: u.Back}
	out.Rows = make([]URow, len(u.Rows))
	for i, r := range u.Rows {
		vals := make([]engine.Value, len(r.Vals))
		copy(vals, r.Vals)
		out.Rows[i] = URow{D: append(ws.Descriptor(nil), r.D...), TID: r.TID, Vals: vals}
	}
	return out
}

// URelSet holds the partitions of one logical relation together with
// the relation's full attribute list (in schema order).
type URelSet struct {
	Attrs []string
	Parts []*URelation
	// ExistenceComplete declares that every row's descriptor implies that
	// its tuple exists: for each tuple id, the rows of every partition
	// cover the same set of worlds. Then the partitions a query reads
	// already say in which worlds each of its tuples exists, and a
	// translation may leave the others out in every answer mode
	// (Translate); without it, every translation merges all partitions.
	// It is set where it holds by construction — tpch.Generate,
	// AddCertainRelation, RepairKey — and kept by Clone, the store and
	// the DML that provably keeps it (internal/txn); AddRelation leaves
	// it false. CheckExistenceComplete verifies it.
	ExistenceComplete bool
}

// UDB is a U-relational database: a world table plus, per logical
// relation, a set of vertical partitions.
type UDB struct {
	W    *ws.WorldTable
	Rels map[string]*URelSet

	relOrder []string
}

// NewUDB creates an empty U-relational database with a fresh world
// table.
func NewUDB() *UDB {
	return &UDB{W: ws.NewWorldTable(), Rels: map[string]*URelSet{}}
}

// AddRelation declares a logical relation with its attribute list.
func (db *UDB) AddRelation(name string, attrs ...string) error {
	if _, dup := db.Rels[name]; dup {
		return fmt.Errorf("core: relation %q already declared", name)
	}
	if len(attrs) == 0 {
		return fmt.Errorf("core: relation %q needs attributes", name)
	}
	seen := map[string]bool{}
	for _, a := range attrs {
		if seen[a] {
			return fmt.Errorf("core: relation %q has duplicate attribute %q", name, a)
		}
		seen[a] = true
	}
	db.Rels[name] = &URelSet{Attrs: append([]string(nil), attrs...)}
	db.relOrder = append(db.relOrder, name)
	return nil
}

// AddPartition declares a vertical partition of relation rel covering
// the given attributes (each must belong to the relation; partitions
// may overlap, cf. Section 2). Returns the partition for row insertion.
func (db *UDB) AddPartition(rel, name string, attrs ...string) (*URelation, error) {
	rs, ok := db.Rels[rel]
	if !ok {
		return nil, fmt.Errorf("core: unknown relation %q", rel)
	}
	for _, a := range attrs {
		found := false
		for _, ra := range rs.Attrs {
			if a == ra {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: attribute %q not in relation %q", a, rel)
		}
	}
	if name == "" {
		name = fmt.Sprintf("u_%s_%d", rel, len(rs.Parts))
	}
	u := &URelation{Name: name, RelName: rel, Attrs: append([]string(nil), attrs...)}
	rs.Parts = append(rs.Parts, u)
	return u, nil
}

// MustAddRelation / MustAddPartition panic on error; for examples.
func (db *UDB) MustAddRelation(name string, attrs ...string) {
	if err := db.AddRelation(name, attrs...); err != nil {
		panic(err)
	}
}

// MustAddPartition panics on error; for examples.
func (db *UDB) MustAddPartition(rel, name string, attrs ...string) *URelation {
	u, err := db.AddPartition(rel, name, attrs...)
	if err != nil {
		panic(err)
	}
	return u
}

// RelNames returns the logical relation names in declaration order.
func (db *UDB) RelNames() []string {
	return append([]string(nil), db.relOrder...)
}

// CoverageComplete reports whether every attribute of every relation is
// covered by at least one partition (a completeness sanity check before
// querying).
func (db *UDB) CoverageComplete() error {
	for _, name := range db.relOrder {
		rs := db.Rels[name]
		for _, a := range rs.Attrs {
			covered := false
			for _, p := range rs.Parts {
				for _, pa := range p.Attrs {
					if pa == a {
						covered = true
						break
					}
				}
			}
			if !covered {
				return fmt.Errorf("core: attribute %s.%s covered by no partition", name, a)
			}
		}
	}
	return nil
}

// SizeBytes estimates the total representation size (partitions plus
// world table), the paper's Figure 9 "dbsize" metric.
func (db *UDB) SizeBytes() int64 {
	n := db.W.SizeBytes()
	for _, rs := range db.Rels {
		for _, p := range rs.Parts {
			n += p.SizeBytes()
		}
	}
	return n
}

// Materialize loads every storage-backed partition into memory (see
// URelation.Materialize); afterwards the database behaves exactly like
// a freshly built in-memory one.
func (db *UDB) Materialize() error {
	for _, name := range db.relOrder {
		for _, p := range db.Rels[name].Parts {
			if err := p.Materialize(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close releases resources held by storage backings (open segment
// files). In-memory databases have nothing to close.
func (db *UDB) Close() error {
	var first error
	for _, name := range db.relOrder {
		for _, p := range db.Rels[name].Parts {
			if c, ok := p.Back.(io.Closer); ok {
				if err := c.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
	}
	return first
}

// requireMaterialized guards the representation-level algorithms that
// read partition rows directly (validation, normalization, reduction,
// world enumeration): on a storage-backed database they would silently
// see empty partitions, so they fail loudly instead and point the
// caller at Materialize.
func (db *UDB) requireMaterialized(op string) error {
	for _, name := range db.relOrder {
		for _, p := range db.Rels[name].Parts {
			if p.Back != nil {
				return fmt.Errorf("core: %s requires a materialized database: partition %s is storage-backed (call Materialize first)", op, p.Name)
			}
		}
	}
	return nil
}

// mustMaterialized panics for the no-error entry points (ground-truth
// world enumeration); silently wrong results would be worse.
func (db *UDB) mustMaterialized(op string) {
	if err := db.requireMaterialized(op); err != nil {
		panic(err)
	}
}

// Clone deep-copies the database. In-memory state is shared with
// nothing; storage-backed partitions share their read-only backing
// with the original, so UDB.Close on either database releases the
// segment files for both (Materialize one of them first to detach).
func (db *UDB) Clone() *UDB {
	out := &UDB{W: db.W.Clone(), Rels: map[string]*URelSet{}, relOrder: append([]string(nil), db.relOrder...)}
	for name, rs := range db.Rels {
		nrs := &URelSet{Attrs: append([]string(nil), rs.Attrs...), ExistenceComplete: rs.ExistenceComplete}
		for _, p := range rs.Parts {
			nrs.Parts = append(nrs.Parts, p.Clone())
		}
		out.Rels[name] = nrs
	}
	return out
}

// Validate checks that the database is well-formed per Definition 2.2:
// every descriptor's graph is a subset of W, and no two tuples provide
// contradictory values for the same tuple field in a shared world (the
// paper's Example 2.3). Storage-backed databases must be materialized
// first.
func (db *UDB) Validate() error {
	if err := db.requireMaterialized("Validate"); err != nil {
		return err
	}
	for _, name := range db.relOrder {
		rs := db.Rels[name]
		for _, p := range rs.Parts {
			for i, r := range p.Rows {
				if !r.D.ValidIn(db.W) {
					return fmt.Errorf("core: %s row %d: descriptor %s not a subset of W",
						p.Name, i, r.D)
				}
			}
		}
		// Contradiction check across (and within) partitions.
		for pi, p1 := range rs.Parts {
			for pj := pi; pj < len(rs.Parts); pj++ {
				p2 := rs.Parts[pj]
				shared := sharedAttrs(p1.Attrs, p2.Attrs)
				if len(shared) == 0 {
					continue
				}
				if err := checkNoContradiction(p1, p2, shared, pi == pj); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func sharedAttrs(a, b []string) [][2]int {
	var out [][2]int
	for i, x := range a {
		for j, y := range b {
			if x == y {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

func checkNoContradiction(p1, p2 *URelation, shared [][2]int, same bool) error {
	// Group p2 rows by tid for pairwise checks.
	byTID := map[int64][]int{}
	for i, r := range p2.Rows {
		byTID[r.TID] = append(byTID[r.TID], i)
	}
	for i1, r1 := range p1.Rows {
		for _, i2 := range byTID[r1.TID] {
			if same && i2 <= i1 {
				continue
			}
			r2 := p2.Rows[i2]
			if !r1.D.ConsistentWith(r2.D) {
				continue
			}
			for _, s := range shared {
				if !engine.Equal(r1.Vals[s[0]], r2.Vals[s[1]]) {
					return fmt.Errorf(
						"core: invalid database: %s and %s assign different values to field (tid=%d, attr=%s) in a shared world",
						p1.Name, p2.Name, r1.TID, p1.Attrs[s[0]])
				}
			}
		}
	}
	return nil
}

// inferKinds derives engine column kinds for a relation's attributes
// from the partition data (first non-null value wins).
func (db *UDB) inferKinds(rel string) map[string]engine.Kind {
	rs := db.Rels[rel]
	kinds := map[string]engine.Kind{}
	for _, p := range rs.Parts {
		var backed []engine.Kind
		if p.Back != nil {
			backed = p.Back.AttrKinds()
		}
		for ai, a := range p.Attrs {
			if _, done := kinds[a]; done {
				continue
			}
			if backed != nil {
				if ai < len(backed) && backed[ai] != engine.KindNull {
					kinds[a] = backed[ai]
				}
				continue
			}
			for _, r := range p.Rows {
				if !r.Vals[ai].IsNull() {
					kinds[a] = r.Vals[ai].K
					break
				}
			}
		}
	}
	for _, a := range rs.Attrs {
		if _, ok := kinds[a]; !ok {
			kinds[a] = engine.KindNull
		}
	}
	return kinds
}

// sortURows orders rows by (tid, descriptor, values) for deterministic
// output in tests and printing.
func sortURows(rows []URow) {
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].TID != rows[j].TID {
			return rows[i].TID < rows[j].TID
		}
		di, dj := rows[i].D, rows[j].D
		for k := 0; k < len(di) && k < len(dj); k++ {
			if di[k] != dj[k] {
				if di[k].Var != dj[k].Var {
					return di[k].Var < dj[k].Var
				}
				return di[k].Val < dj[k].Val
			}
		}
		if len(di) != len(dj) {
			return len(di) < len(dj)
		}
		return engine.CompareTuples(rows[i].Vals, rows[j].Vals) < 0
	})
}
