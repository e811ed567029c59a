package tpch

import (
	"fmt"
	"math"
	"math/rand"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// colDef describes one generated column. gen produces a fresh random
// value (used both for base values and for uncertain alternatives); key
// columns are never made uncertain (tuple identity and referential
// structure stay intact, so every world keeps dbgen's join
// selectivities — the invariant the paper checks for its generator).
type colDef struct {
	name string
	gen  func(g *generator, tid int64) engine.Value
	key  bool
}

type tableDef struct {
	name string
	cols []colDef
}

// generator carries generation state.
type generator struct {
	p      Params
	rng    *rand.Rand
	db     *core.UDB
	counts map[string]int
	tds    []tableDef
	tdIdx  map[string]int
	// liOrder / liLine map lineitem tid-1 to its order key and line
	// number.
	liOrder []int64
	liLine  []int64
	// field pool of the current window.
	pool []fieldRef
	// partitions[table][col] is the attribute-level partition.
	parts map[string][]*core.URelation
	// base values per table (column-major would save memory; row-major
	// keeps the code simple).
	base map[string][][]engine.Value
	// stats
	uncertainFields int
	numVars         int
}

// fieldRef locates one uncertain tuple field.
type fieldRef struct {
	table string
	tid   int64
	col   int
}

// Stats summarizes a generated database, feeding the Figure 9 table.
type Stats struct {
	Params          Params
	Rows            map[string]int
	UncertainFields int
	Vars            int
	Log10Worlds     float64
	MaxLocalWorlds  int
	SizeBytes       int64
}

// Generate builds the uncertain TPC-H database for the given
// parameters. The output is an attribute-level U-relational database
// (one partition per column), initially normalized (all descriptors
// have size one) and, by construction, reduced and existence-complete.
func Generate(p Params) (*core.UDB, Stats, error) {
	if p.MaxAlternatives < 2 {
		return nil, Stats{}, fmt.Errorf("tpch: MaxAlternatives must be ≥ 2")
	}
	g := &generator{
		p:      p,
		rng:    rand.New(rand.NewSource(p.Seed)),
		db:     core.NewUDB(),
		counts: map[string]int{},
		parts:  map[string][]*core.URelation{},
		base:   map[string][][]engine.Value{},
		tdIdx:  map[string]int{},
	}
	g.tds = tables()
	for i, td := range g.tds {
		g.tdIdx[td.name] = i
	}
	for _, td := range g.tds {
		if err := g.genTable(td); err != nil {
			return nil, Stats{}, err
		}
	}
	g.flushWindow()
	// Every tuple has one row per partition of a certain field and one
	// per domain value of an uncertain field's variable, so each
	// partition's rows of a tuple cover every world.
	for _, name := range g.db.RelNames() {
		g.db.Rels[name].ExistenceComplete = true
	}
	st := Stats{
		Params:          p,
		Rows:            g.counts,
		UncertainFields: g.uncertainFields,
		Vars:            g.numVars,
		Log10Worlds:     g.db.W.Log10Worlds(),
		MaxLocalWorlds:  g.db.W.MaxDomainSize(),
		SizeBytes:       g.db.SizeBytes(),
	}
	return g.db, st, nil
}

// tables defines the eight TPC-H tables, scaled row counts, and value
// generators.
func tables() []tableDef {
	str := func(s string) engine.Value { return engine.Str(s) }
	pick := func(g *generator, list []string) engine.Value {
		return str(list[g.rng.Intn(len(list))])
	}
	date := func(g *generator, lo, span int64) engine.Value {
		start := engine.MustDate(startDate).AsInt()
		return engine.Int(start + lo + g.rng.Int63n(span))
	}
	money := func(g *generator, lo, hi int64) engine.Value {
		cents := lo*100 + g.rng.Int63n((hi-lo)*100)
		return engine.Float(float64(cents) / 100)
	}
	return []tableDef{
		{name: "region", cols: []colDef{
			{name: "r_regionkey", key: true, gen: func(g *generator, tid int64) engine.Value { return engine.Int(tid - 1) }},
			{name: "r_name", gen: func(g *generator, tid int64) engine.Value { return str(regions[(tid-1)%5]) }},
		}},
		{name: "nation", cols: []colDef{
			{name: "n_nationkey", key: true, gen: func(g *generator, tid int64) engine.Value { return engine.Int(tid - 1) }},
			{name: "n_name", gen: func(g *generator, tid int64) engine.Value { return str(nations[(tid-1)%25].Name) }},
			{name: "n_regionkey", gen: func(g *generator, tid int64) engine.Value {
				return engine.Int(int64(nations[(tid-1)%25].Region))
			}},
		}},
		{name: "supplier", cols: []colDef{
			{name: "s_suppkey", key: true, gen: func(g *generator, tid int64) engine.Value { return engine.Int(tid) }},
			{name: "s_name", gen: func(g *generator, tid int64) engine.Value {
				return str(fmt.Sprintf("Supplier#%09d", g.rng.Intn(1<<28)))
			}},
			{name: "s_nationkey", gen: func(g *generator, tid int64) engine.Value {
				return engine.Int(g.rng.Int63n(25))
			}},
			{name: "s_phone", gen: func(g *generator, tid int64) engine.Value {
				return str(fmt.Sprintf("%02d-%03d-%03d-%04d", 10+g.rng.Intn(25),
					g.rng.Intn(1000), g.rng.Intn(1000), g.rng.Intn(10000)))
			}},
			{name: "s_acctbal", gen: func(g *generator, tid int64) engine.Value { return money(g, -999, 9999) }},
		}},
		{name: "part", cols: []colDef{
			{name: "p_partkey", key: true, gen: func(g *generator, tid int64) engine.Value { return engine.Int(tid) }},
			{name: "p_name", gen: func(g *generator, tid int64) engine.Value {
				a := nameAdjectives[g.rng.Intn(len(nameAdjectives))]
				b := nameAdjectives[g.rng.Intn(len(nameAdjectives))]
				return str(a + " " + b)
			}},
			{name: "p_brand", gen: func(g *generator, tid int64) engine.Value {
				return str(fmt.Sprintf("Brand#%d%d", 1+g.rng.Intn(5), 1+g.rng.Intn(5)))
			}},
			{name: "p_type", gen: func(g *generator, tid int64) engine.Value {
				return str(typeSyl1[g.rng.Intn(6)] + " " + typeSyl2[g.rng.Intn(5)] + " " + typeSyl3[g.rng.Intn(5)])
			}},
			{name: "p_size", gen: func(g *generator, tid int64) engine.Value {
				return engine.Int(1 + g.rng.Int63n(50))
			}},
			{name: "p_retailprice", gen: func(g *generator, tid int64) engine.Value { return money(g, 900, 2000) }},
		}},
		{name: "partsupp", cols: []colDef{
			{name: "ps_partkey", key: true, gen: func(g *generator, tid int64) engine.Value {
				return engine.Int((tid-1)/4 + 1)
			}},
			{name: "ps_suppkey", key: true, gen: func(g *generator, tid int64) engine.Value {
				return engine.Int(1 + (tid-1)%int64(g.counts["supplier"]))
			}},
			{name: "ps_availqty", gen: func(g *generator, tid int64) engine.Value {
				return engine.Int(1 + g.rng.Int63n(9999))
			}},
			{name: "ps_supplycost", gen: func(g *generator, tid int64) engine.Value { return money(g, 1, 1000) }},
		}},
		{name: "customer", cols: []colDef{
			{name: "c_custkey", key: true, gen: func(g *generator, tid int64) engine.Value { return engine.Int(tid) }},
			{name: "c_name", gen: func(g *generator, tid int64) engine.Value {
				return str(fmt.Sprintf("Customer#%09d", g.rng.Intn(1<<28)))
			}},
			{name: "c_nationkey", gen: func(g *generator, tid int64) engine.Value {
				return engine.Int(g.rng.Int63n(25))
			}},
			{name: "c_phone", gen: func(g *generator, tid int64) engine.Value {
				return str(fmt.Sprintf("%02d-%03d-%03d-%04d", 10+g.rng.Intn(25),
					g.rng.Intn(1000), g.rng.Intn(1000), g.rng.Intn(10000)))
			}},
			{name: "c_acctbal", gen: func(g *generator, tid int64) engine.Value { return money(g, -999, 9999) }},
			{name: "c_mktsegment", gen: func(g *generator, tid int64) engine.Value { return pick(g, segments) }},
		}},
		{name: "orders", cols: []colDef{
			{name: "o_orderkey", key: true, gen: func(g *generator, tid int64) engine.Value { return engine.Int(tid) }},
			{name: "o_custkey", gen: func(g *generator, tid int64) engine.Value {
				return engine.Int(1 + g.rng.Int63n(int64(g.counts["customer"])))
			}},
			{name: "o_orderstatus", gen: func(g *generator, tid int64) engine.Value { return pick(g, orderStatus) }},
			{name: "o_totalprice", gen: func(g *generator, tid int64) engine.Value { return money(g, 850, 550000) }},
			{name: "o_orderdate", gen: func(g *generator, tid int64) engine.Value {
				span := engine.MustDate(endDate).AsInt() - engine.MustDate(startDate).AsInt() - 151
				return date(g, 0, span)
			}},
			{name: "o_orderpriority", gen: func(g *generator, tid int64) engine.Value { return pick(g, priorities) }},
			{name: "o_shippriority", gen: func(g *generator, tid int64) engine.Value { return engine.Int(0) }},
		}},
		{name: "lineitem", cols: []colDef{
			{name: "l_orderkey", key: true, gen: func(g *generator, tid int64) engine.Value {
				return engine.Int(g.liOrder[tid-1])
			}},
			{name: "l_linenumber", key: true, gen: func(g *generator, tid int64) engine.Value {
				return engine.Int(g.liLine[tid-1])
			}},
			{name: "l_partkey", gen: func(g *generator, tid int64) engine.Value {
				return engine.Int(1 + g.rng.Int63n(int64(g.counts["part"])))
			}},
			{name: "l_suppkey", gen: func(g *generator, tid int64) engine.Value {
				return engine.Int(1 + g.rng.Int63n(int64(g.counts["supplier"])))
			}},
			{name: "l_quantity", gen: func(g *generator, tid int64) engine.Value {
				return engine.Int(1 + g.rng.Int63n(50))
			}},
			{name: "l_extendedprice", gen: func(g *generator, tid int64) engine.Value { return money(g, 900, 105000) }},
			{name: "l_discount", gen: func(g *generator, tid int64) engine.Value {
				return engine.Float(float64(g.rng.Intn(11)) / 100)
			}},
			{name: "l_tax", gen: func(g *generator, tid int64) engine.Value {
				return engine.Float(float64(g.rng.Intn(9)) / 100)
			}},
			{name: "l_shipdate", gen: func(g *generator, tid int64) engine.Value {
				span := engine.MustDate(endDate).AsInt() - engine.MustDate(startDate).AsInt()
				return date(g, 1, span)
			}},
			{name: "l_commitdate", gen: func(g *generator, tid int64) engine.Value {
				span := engine.MustDate(endDate).AsInt() - engine.MustDate(startDate).AsInt()
				return date(g, 30, span)
			}},
			{name: "l_receiptdate", gen: func(g *generator, tid int64) engine.Value {
				span := engine.MustDate(endDate).AsInt() - engine.MustDate(startDate).AsInt()
				return date(g, 31, span)
			}},
		}},
	}
}

// genTable generates one table: base values, uncertainty marking, and
// the certain rows of the attribute-level partitions. Uncertain fields
// go to the pool and are materialized when a window flushes.
func (g *generator) genTable(td tableDef) error {
	var n int
	if td.name == "lineitem" {
		// 1..7 lineitems per order, like dbgen.
		n = 0
		for o := 1; o <= g.counts["orders"]; o++ {
			k := 1 + g.rng.Intn(7)
			for l := 1; l <= k; l++ {
				g.liOrder = append(g.liOrder, int64(o))
				g.liLine = append(g.liLine, int64(l))
			}
			n += k
		}
	} else {
		n = RowCount(td.name, g.p.Scale)
	}
	g.counts[td.name] = n

	attrs := make([]string, len(td.cols))
	for i, c := range td.cols {
		attrs[i] = c.name
	}
	if err := g.db.AddRelation(td.name, attrs...); err != nil {
		return err
	}
	parts := make([]*core.URelation, len(td.cols))
	for i, c := range td.cols {
		p, err := g.db.AddPartition(td.name, "u_"+td.name+"_"+c.name, c.name)
		if err != nil {
			return err
		}
		parts[i] = p
	}
	g.parts[td.name] = parts
	rows := make([][]engine.Value, n)
	g.base[td.name] = rows

	for tid := int64(1); tid <= int64(n); tid++ {
		row := make([]engine.Value, len(td.cols))
		rows[tid-1] = row
		for ci, c := range td.cols {
			row[ci] = c.gen(g, tid)
			if !c.key && g.p.Uncertainty > 0 && g.rng.Float64() < g.p.Uncertainty {
				g.pool = append(g.pool, fieldRef{table: td.name, tid: tid, col: ci})
				if len(g.pool) >= g.p.Window {
					g.flushWindow()
				}
				continue
			}
			parts[ci].Add(nil, tid, row[ci])
		}
	}
	return nil
}

// dfcSchedule computes, for n uncertain fields, the number of variables
// per dependent-field count following the paper's Zipf construction:
// ⌈C·z^i⌉ variables with DFC i+1, for i = 0..k-1, where C normalizes
// the total count to n.
func dfcSchedule(n int, z float64, k int) []int {
	if n == 0 {
		return nil
	}
	if z <= 0 || z >= 1 {
		z = 0.5
	}
	c := float64(n) * (1 - z) / (1 - math.Pow(z, float64(k)))
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = int(math.Ceil(c * math.Pow(z, float64(i))))
	}
	return out
}

// flushWindow turns the pooled uncertain fields into variables and
// alternative rows, as the paper describes: shuffle the pool, compute
// the DFC distribution, assign fields to variables incrementally, then
// compute each variable's domain and the alternative values of its
// fields.
func (g *generator) flushWindow() {
	pool := g.pool
	g.pool = nil
	if len(pool) == 0 {
		return
	}
	g.uncertainFields += len(pool)
	g.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	counts := dfcSchedule(len(pool), g.p.Correlation, g.p.MaxDFC)
	// Interleave DFC classes so high-DFC variables are allocated before
	// the pool runs dry, regardless of ordering.
	next := 0
	for dfcIdx := len(counts) - 1; dfcIdx >= 0 && next < len(pool); dfcIdx-- {
		dfc := dfcIdx + 1
		for v := 0; v < counts[dfcIdx] && next < len(pool); v++ {
			take := dfc
			if next+take > len(pool) {
				take = len(pool) - next
			}
			g.makeVariable(pool[next : next+take])
			next += take
		}
	}
	for next < len(pool) {
		g.makeVariable(pool[next : next+1])
		next++
	}
}

// makeVariable realizes one variable over the given dependent fields.
func (g *generator) makeVariable(fields []fieldRef) {
	k := len(fields)
	// Alternative counts and values per field. The base value is always
	// alternative 0, so every world stays plausible.
	alts := make([][]engine.Value, k)
	prod := int64(1)
	for i, f := range fields {
		mi := 2 + g.rng.Intn(g.p.MaxAlternatives-1)
		alts[i] = g.altValues(f, mi)
		prod *= int64(len(alts[i]))
		if prod > int64(g.p.MaxDomain)*64 {
			prod = int64(g.p.MaxDomain) * 64 // avoid overflow; cap below dominates
		}
	}
	// Domain size: p^(k-1) of the combination space, at least 2, capped.
	domSize := int64(math.Ceil(math.Pow(g.p.SurvivalP, float64(k-1)) * float64(prod)))
	if domSize < 2 {
		domSize = 2
	}
	if domSize > prod {
		domSize = prod
	}
	if domSize > int64(g.p.MaxDomain) {
		domSize = int64(g.p.MaxDomain)
	}
	// Sample domSize distinct combinations of alternative indexes
	// (mixed radix over the fields' alternative counts). Combination 0
	// (all base values) is always included.
	combos := g.sampleCombos(prod, domSize)
	dom := make([]ws.Val, len(combos))
	for i := range combos {
		dom[i] = ws.Val(i + 1)
	}
	x, err := g.db.W.NewVar("", dom)
	if err != nil {
		panic(err) // domains are constructed valid
	}
	g.numVars++
	// Emit the alternative rows: field i takes digit i of the combo.
	for i, f := range fields {
		part := g.parts[f.table][f.col]
		radix := int64(len(alts[i]))
		for vi, combo := range combos {
			digit := combo
			for j := 0; j < i; j++ {
				digit /= int64(len(alts[j]))
			}
			val := alts[i][digit%radix]
			part.Add(ws.MustDescriptor(ws.A(x, ws.Val(vi+1))), f.tid, val)
		}
	}
}

// altValues produces m distinct values for a field, the base value
// first.
func (g *generator) altValues(f fieldRef, m int) []engine.Value {
	td := g.tds[g.tdIdx[f.table]]
	base := g.base[f.table][f.tid-1][f.col]
	out := []engine.Value{base}
	seen := map[string]bool{engine.KeyString(engine.Tuple{base}): true}
	for tries := 0; len(out) < m && tries < m*8; tries++ {
		v := td.cols[f.col].gen(g, f.tid)
		k := engine.KeyString(engine.Tuple{v})
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, v)
	}
	return out
}

// sampleCombos draws count distinct values in [0, space), always
// including 0.
func (g *generator) sampleCombos(space, count int64) []int64 {
	if count >= space {
		out := make([]int64, space)
		for i := range out {
			out[i] = int64(i)
		}
		return out
	}
	seen := map[int64]bool{0: true}
	out := []int64{0}
	for int64(len(out)) < count {
		c := g.rng.Int63n(space)
		if seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}
