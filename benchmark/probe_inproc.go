package main

import (
	"runtime"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/obs"
	"urel/internal/store"
)

// Probes of the two in-process workloads. Each reads what it can from
// the traced pass's spans and adds a few measurements the op itself
// does not contain, all through exported functions.

const probeReps = 5

// setPlanStages sets the translate and optimize medians, which every
// in-process op passes through.
func setPlanStages(rec *record, spans []span) {
	rec.set(perLayer, "core.translate_us", 1000*median(flatten(childMS(spans, "core", "translate"))))
	rec.set(perLayer, "engine.optimize_us", 1000*median(flatten(childMS(spans, "engine", "optimize"))))
}

func (s *paperMemSession) probe(e *env, rec *record, spans []span) error {
	setPlanStages(rec, spans)
	exec := childMS(spans, "engine", "exec")
	for _, cls := range s.w.spec().classes {
		// Class names are q1_lo ... q3_hi, the metric names' infix.
		rec.set(perLayer, "engine."+cls.name+"_ms", median(exec[cls.name]))
	}

	// What a possible-answers op does not do, but certain and conf ops
	// must: evaluate to the representation, decode it, project out the
	// distinct value tuples. Timed once per class on the same data.
	var reprRows, answers, q3Rows int
	var decode, distinct []float64
	for i, op := range paperMemOps {
		db := s.db(op.hi)
		plan, lay, err := db.Translate(core.StripPoss(s.w.queries[i]))
		if err != nil {
			return err
		}
		rel, err := engine.Run(plan, engine.NewCatalog(), engine.ExecConfig{})
		if err != nil {
			return err
		}
		reprRows += rel.Len()
		answers += s.w.expect[i].rows
		if i == q3Hi {
			q3Rows = rel.Len()
		}
		ms, err := timeMS(probeReps, func() error {
			_, err := core.Decode(db.W, rel, lay)
			return err
		})
		if err != nil {
			return err
		}
		decode = append(decode, ms)
		ms, err = timeMS(probeReps, func() error {
			_, err := engine.Drain(engine.NewDistinct(engine.NewProject(engine.NewScan(rel), lay.Attrs)))
			return err
		})
		if err != nil {
			return err
		}
		distinct = append(distinct, ms)
	}
	rec.set(perLayer, "core.decode_ms", median(decode))
	rec.set(perLayer, "core.poss_distinct_ms", median(distinct))
	if answers > 0 {
		rec.set(perLayer, "engine.repr_rows_per_answer", float64(reprRows)/float64(answers))
	}

	// Q3 on the hi dataset: allocations per representation row (work per
	// row of the result before poss folds it into one answer), and the
	// parallel operators against the serial ones.
	q3 := s.w.queries[q3Hi]
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := s.hi.EvalPoss(q3, engine.ExecConfig{}); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	rec.set(perLayer, "engine.q3_allocs_per_repr_row", float64(m1.Mallocs-m0.Mallocs)/float64(q3Rows))
	serial, err := timeMS(probeReps, func() error {
		_, err := s.hi.EvalPoss(q3, engine.ExecConfig{})
		return err
	})
	if err != nil {
		return err
	}
	par2, err := timeMS(probeReps, func() error {
		_, err := s.hi.EvalPoss(q3, engine.ExecConfig{Parallelism: 2})
		return err
	})
	if err != nil {
		return err
	}
	rec.set(perLayer, "engine.par2_speedup_q3", serial/par2)
	return nil
}

func (s *storedColdSession) probe(e *env, rec *record, spans []span) error {
	setPlanStages(rec, spans)
	exec := childMS(spans, "engine", "exec")
	rec.set(perLayer, "engine.q1_lo_ms", median(exec["q1"]))
	rec.set(perLayer, "engine.q2_lo_ms", median(exec["q2"]))
	rec.set(perLayer, "index.lookup_us", 1000*median(exec["point"]))
	rec.set(perLayer, "store.open_ms", median(flatten(childMS(spans, "store", "open"))))
	rec.set(perLayer, "index.build_ms", e.stages["index.build"])
	fx := s.w.fx
	disk := float64(dirBytes(s.dir))
	rec.set(perLayer, "store.save_mb_per_s", float64(fx.stats.SizeBytes)/1e6/(e.stages["store.save"]/1000))
	rec.set(perLayer, "store.disk_bytes_per_user_byte", disk/float64(fx.stats.SizeBytes))

	// Decode rate: a fresh open, every segment of every partition read
	// and decoded once.
	var mat *core.UDB
	ms, err := timeMS(1, func() (err error) {
		if mat, err = store.Open(s.dir); err != nil {
			return err
		}
		return mat.Materialize()
	})
	if err != nil {
		return err
	}
	defer mat.Close()
	rec.set(perLayer, "store.decode_mb_per_s", disk/1e6/(ms/1000))

	// scan_share: the share of a cold op's time that is the store's —
	// open and close, plus the part of plan execution that disappears
	// when the same plan runs over the materialized copy (read, decode,
	// pruning; from outside, the store's work inside the engine's pull
	// loop is not a span). Weighted by the cycle's class counts.
	// Planning is left out of the comparison: in-memory relations have
	// no stored statistics, so optimizing over them costs more.
	ops := rootMS(spans)
	mtr := newTracer()
	var opTotal, execCold, execWarm float64
	for i, cls := range s.w.spec().classes {
		q := coldQuery(i, fx.keys.key(0))
		for r := 0; r < probeReps; r++ {
			root := mtr.newOp(layerBench, cls.name)
			_, err := evalPossSteps(mtr, root, mat, q)
			mtr.end(root)
			if err != nil {
				return err
			}
		}
		n := float64(cls.count)
		opTotal += n * median(ops[cls.name])
		execCold += n * median(exec[cls.name])
		execWarm += n * median(childMS(mtr.spans, "engine", "exec")[cls.name])
	}
	inExec := execCold - execWarm
	if inExec < 0 {
		inExec = 0
	}
	setShares(rec, spans, nil)
	storePct := rec.Metrics["share.store_pct"].Value + 100*inExec/opTotal
	rec.set(perLayer, "share.engine_pct", rec.Metrics["share.engine_pct"].Value-100*inExec/opTotal)
	rec.set(perLayer, "share.store_pct", storePct)
	rec.set(perLayer, "store.scan_share", storePct/100)

	// Index effectiveness, from EXPLAIN ANALYZE's operator statistics
	// over a handful of fresh keys.
	db, err := store.Open(s.dir)
	if err != nil {
		return err
	}
	defer db.Close()
	var segs, rejects, runs int64
	const lookups = 16
	for i := 0; i < lookups; i++ {
		res, err := db.ExplainAnalyze(pointQuery(fx.keys.key(1000+i), pointCols...), false, engine.ExecConfig{})
		if err != nil {
			return err
		}
		walkSpans(res.Trace, func(sp *obs.Span) {
			segs += sp.Stat("segments_read")
			rejects += sp.Stat("index_bloom_rejections")
			runs += sp.Stat("index_runs_consulted")
		})
	}
	rec.set(perLayer, "index.segments_read_per_lookup", float64(segs)/lookups)
	if runs > 0 {
		rec.set(perLayer, "index.bloom_reject_share", float64(rejects)/float64(runs))
	}
	return nil
}

// walkSpans visits every span of an operator trace.
func walkSpans(sp *obs.Span, f func(*obs.Span)) {
	if sp == nil {
		return
	}
	f(sp)
	for _, c := range sp.Children() {
		walkSpans(c, f)
	}
}
