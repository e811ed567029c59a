package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// layerExec is the layer of the span the server reports about itself:
// elapsed_ms, from after admission to before the response is written.
// A workload's probe splits it over the modules it called.
const layerExec = "exec"

// prober is a session that can fill the per-layer metrics of its
// workload from the traced pass's spans and a few probes of its own.
type prober interface {
	probe(e *env, rec *record, spans []span) error
}

// runTraced performs the traced run of one workload: one set-up, the
// warm-up, then untraced and traced cycles in turn (two rounds' worth,
// a fifth of the ops of an untraced run, each), then the session's
// probes. Its times are as the clock read them, not brought to
// reference speed: they are compared with each other, within one run. It
// reports every per-layer metric; those of layers the workload does
// not use stay 0. End-to-end metrics never come from here.
func runTraced(e *env, w workload, seconds float64, outDir string) (*record, error) {
	spec := w.spec()
	rec := newRecord(spec, e, seconds, true)
	for _, m := range perLayer {
		rec.set(perLayer, m.name, 0)
	}
	e.excluded, e.stages = 0, nil
	s, err := w.setUp(e)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
	}
	defer s.close()
	seqs := make([]int, spec.clients)
	runCycles(s, spec, seqs, spec.warmCycles, nil)

	tr := newTracer()
	var plain, traced []float64 // wall ms of each untraced / traced cycle
	var mallocs uint64          // of the untraced cycles
	var m0, m1, c0, c1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds/5*spec.roundCycles(seconds) || i < 3; i++ {
		runtime.ReadMemStats(&c0)
		_, fails, wall := runCycles(s, spec, seqs, 1, nil)
		runtime.ReadMemStats(&c1)
		mallocs += c1.Mallocs - c0.Mallocs
		for _, f := range fails {
			rec.fail(f)
		}
		plain = append(plain, wall.Seconds()*1000)
		samples, fails, wall := runCycles(s, spec, seqs, 1, tr)
		for _, f := range fails {
			rec.fail(f)
		}
		traced = append(traced, wall.Seconds()*1000)
		rec.Attempted += 2 * len(samples)
	}
	runtime.ReadMemStats(&m1)
	spans := tr.spans

	rec.set(perLayer, "tpch.generate_ms", e.stages["tpch.generate"])
	rec.set(perLayer, "bench.trace_pass_overhead_pct", (median(traced)/median(plain)-1)*100)
	rec.set(perLayer, "proc.gc_cycles_per_op", float64(m1.NumGC-m0.NumGC)/float64(rec.Attempted))
	rec.set(perLayer, "proc.allocs_per_op", float64(mallocs)/float64(rec.Attempted/2))
	setShares(rec, spans, nil)
	if p, ok := s.(prober); ok {
		if err := p.probe(e, rec, spans); err != nil {
			return nil, fmt.Errorf("%s: probe: %w", spec.name, err)
		}
	}
	runtime.ReadMemStats(&m1)
	rec.set(perLayer, "proc.gc_cpu_share", m1.GCCPUFraction)
	rec.set(perLayer, "proc.peak_rss_mb", peakRSSMB())

	rec.TraceOut = filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.json", spec.name, e.seed))
	if err := writeSpans(rec.TraceOut, spec.name, e.seed, spans); err != nil {
		return nil, err
	}
	e.logf("spans written to %s\n", rec.TraceOut)
	return rec, nil
}

// setShares turns layer self times into the share.* metrics and the
// unattributed remainder. split says how the server-reported exec
// layer divides over the modules (shares summing to at most 1, by
// shadow replay); what it leaves over is unattributed.
func setShares(rec *record, spans []span, split map[string]float64) {
	self, total := layerSelf(spans)
	if total == 0 {
		return
	}
	layers := map[string]float64{}
	for l, ns := range self {
		layers[l] += float64(ns)
	}
	exec := layers[layerExec]
	delete(layers, layerExec)
	left := exec
	for l, share := range split {
		layers[l] += exec * share
		left -= exec * share
	}
	pct := func(l string) float64 { return 100 * layers[l] / float64(total) }
	rec.set(perLayer, "share.core_pct", pct("core"))
	rec.set(perLayer, "share.engine_pct", pct("engine"))
	rec.set(perLayer, "share.store_pct", pct("store"))
	rec.set(perLayer, "share.txn_pct", pct("txn"))
	rec.set(perLayer, "share.server_pct", pct("server"))
	rec.set(perLayer, "bench.spans_unattributed_pct", 100*(layers[layerBench]+left)/float64(total))
}

// opNames maps each op id to its root span's name (the op's class).
func opNames(spans []span) map[int]string {
	names := map[int]string{}
	for _, s := range spans {
		if s.Parent < 0 {
			names[s.Op] = s.Name
		}
	}
	return names
}

// childMS returns, per op class, the durations in ms of the child
// spans named layer/name.
func childMS(spans []span, layer, name string) map[string][]float64 {
	ops := opNames(spans)
	out := map[string][]float64{}
	for _, s := range spans {
		if s.Parent >= 0 && s.Layer == layer && s.Name == name {
			out[ops[s.Op]] = append(out[ops[s.Op]], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// rootMS returns, per op class, the durations in ms of the root spans.
func rootMS(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		if s.Parent < 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func flatten(m map[string][]float64) []float64 {
	var out []float64
	for _, xs := range m {
		out = append(out, xs...)
	}
	return out
}

// timeMS runs f reps times and returns the median duration in ms.
func timeMS(reps int, f func() error) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(t0))/1e6)
	}
	return median(ts), nil
}
