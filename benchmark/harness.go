package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// rounds is the number of timed rounds of a run; ops_per_s is the
// median of their rates, so one stolen-CPU stall cannot move it. With
// ten short rounds and a yardstick slot between each two, no op is more
// than a second or two from the slots that scale it.
const rounds = 10

// defaultSetups is how many complete set-ups one run performs; setup_s
// is their median and only the last one is measured against.
const defaultSetups = 5

// cleanup is the one stack of release functions of the process. It
// runs on normal exit, on error and on SIGINT/SIGTERM, so no
// listener, server, store or temp dir outlives the command.
type cleanup struct {
	mu     sync.Mutex
	fns    []*func()
	closed bool
}

// push registers fn and returns a release function that runs it now
// (once) and drops it from the stack.
func (c *cleanup) push(fn func()) (release func()) {
	var once sync.Once
	run := func() { once.Do(fn) }
	p := &run
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		run()
		return run
	}
	c.fns = append(c.fns, p)
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		for i, q := range c.fns {
			if q == p {
				c.fns = append(c.fns[:i], c.fns[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
		run()
	}
}

// runAll releases everything still registered, newest first. Later
// pushes run immediately.
func (c *cleanup) runAll() {
	c.mu.Lock()
	fns := c.fns
	c.fns, c.closed = nil, true
	c.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		(*fns[i])()
	}
}

// sizes are the dataset scales (tpch scale units). Tests shrink them.
type sizes struct {
	mem    float64 // paper_mem, both datasets
	stored float64 // stored_cold, served_mix, served_rw
}

// defaultSizes keeps the stored data below s=0.4, where Q1 over stored
// sources stops taking tens of milliseconds and takes seconds (orders
// outgrows one 4096-row segment); see README "Sizing".
var defaultSizes = sizes{mem: 0.05, stored: 0.25}

// env is what a run hands every workload.
type env struct {
	seed   int64
	size   sizes
	setups int // complete set-ups per untraced run (tests do fewer)
	// yardCalls is the number of yardsticks per slot (tests do fewer).
	yardCalls int
	tmpRoot   string // scratch directory of this process, removed at exit
	cl        *cleanup
	log       io.Writer // narration (stderr)

	excluded time.Duration // benchmark-side work inside the current set-up

	// stages holds the duration in ms of each named step of the latest
	// set-up (summed when a step runs twice), for the traced run.
	stages map[string]float64
}

// stage times one named step of program set-up.
func (e *env) stage(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	if e.stages == nil {
		e.stages = map[string]float64{}
	}
	e.stages[name] += float64(time.Since(t0)) / 1e6
	return err
}

// untimed runs benchmark-side work (computing expected answers) that
// happens inside a set-up but is not program set-up.
func (e *env) untimed(f func() error) error {
	t0 := time.Now()
	err := f()
	e.excluded += time.Since(t0)
	return err
}

func (e *env) logf(format string, args ...any) {
	if e.log != nil {
		fmt.Fprintf(e.log, format, args...)
	}
}

// mkdir creates a fresh directory under the temp root.
func (e *env) mkdir(prefix string) (string, error) {
	return os.MkdirTemp(e.tmpRoot, prefix+"-")
}

// checkoutRoot returns the nearest ancestor of the working directory
// that holds BENCHMARK.json, or "" when there is none.
func checkoutRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return ""
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// newTempRoot creates the process's scratch directory inside the
// checkout (the driver allows writes nowhere else) and registers its
// removal.
func newTempRoot(cl *cleanup) (string, error) {
	base := os.TempDir()
	if root := checkoutRoot(); root != "" {
		base = filepath.Join(root, ".bench_build", "tmp")
		if err := os.MkdirAll(base, 0o755); err != nil {
			return "", err
		}
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", err
	}
	cl.push(func() { os.RemoveAll(dir) })
	return dir, nil
}

// opResult is what one op reports back to the harness.
type opResult struct {
	class int    // index into the workload's classes
	ok    bool   // succeeded and the answer matched
	msg   string // first offending statement, when !ok
}

// session is one complete program set-up of a workload, ready to
// serve ops. do runs op number seq of client c (seq counts up across
// warm-up and rounds, so seeded literals never repeat); tr is nil on
// untraced passes.
type session interface {
	do(c, seq int, tr *tracer) opResult
	close()
}

// noter is a session that has counts to put on the record after the
// timed rounds (flushes and compactions seen, cache sizes).
type noter interface {
	notes() (map[string]float64, error)
}

// workload builds sessions. setUp is program set-up only: generate,
// save, index, open, listen. Benchmark-side work inside it goes
// through env.untimed.
type workload interface {
	spec() *workloadSpec
	setUp(e *env) (session, error)
}

// sample is one timed op.
type sample struct {
	ns    int64
	class int
}

// roundStats is one timed round, as the clock read it. Speed is the
// machine's speed during the round against the reference (yardRefMS
// over the yardsticks before and after it); the metrics are these
// figures brought to reference speed.
type roundStats struct {
	Ops     int     `json:"ops"`
	WallS   float64 `json:"wall_s"`
	OpsPerS float64 `json:"ops_per_s"`
	P50MS   float64 `json:"lat_p50_ms"`
	P95MS   float64 `json:"lat_p95_ms"`
	CPUMS   float64 `json:"cpu_ms"`
	Speed   float64 `json:"speed"`
	mallocs uint64
	bytes   uint64
}

// record is the machine-readable outcome of one workload run.
type record struct {
	Workload   string       `json:"workload"`
	Seed       int64        `json:"seed"`
	Seconds    float64      `json:"seconds"`
	Clients    int          `json:"clients"`
	GoVersion  string       `json:"go_version"`
	NumCPU     int          `json:"nproc"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Commit     string       `json:"commit"`
	Traced     bool         `json:"traced"`
	Attempted  int          `json:"attempted"`
	Failed     int          `json:"failed"`
	FirstFail  string       `json:"first_failure,omitempty"`
	SetupsS    []float64    `json:"setups_s,omitempty"`    // as the clock read them
	SetupSpeed float64      `json:"setup_speed,omitempty"` // machine speed while they ran
	YardMS     []float64    `json:"yard_ms,omitempty"`     // the slot before round 0 and after every round
	Rounds     []roundStats `json:"rounds,omitempty"`
	P95Samples int          `json:"lat_p95_samples_beyond,omitempty"`
	// AllocsPerOp is MemStats.Mallocs per op over the timed rounds. It
	// repeats to 0.1 % for one seed, so parent and change compare on it
	// seed by seed; between seeds it follows the few uncertain fields
	// the certain and conf statements meet, too widely to gate a median.
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	ClassP50MS  map[string]float64 `json:"class_p50_ms,omitempty"`
	Boundaries  []float64          `json:"class_boundaries_pct,omitempty"`
	TraceOut    string             `json:"trace_out,omitempty"`
	Notes       map[string]float64 `json:"notes,omitempty"` // counts a session reports about its run
	// Speed is the median machine speed of the timed rounds, and Unscaled
	// the time metrics as the clock read them, before they were brought
	// to reference speed.
	Speed    float64            `json:"machine_speed,omitempty"`
	Unscaled map[string]float64 `json:"unscaled,omitempty"`
	Metrics  map[string]metric  `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newRecord(w *workloadSpec, e *env, seconds float64, traced bool) *record {
	return &record{
		Workload:   w.name,
		Seed:       e.seed,
		Seconds:    seconds,
		Clients:    w.clients,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commitID(),
		Traced:     traced,
		Boundaries: w.boundaries(),
		Metrics:    map[string]metric{},
	}
}

func (r *record) set(specs []metricSpec, name string, v float64) {
	for _, m := range specs {
		if m.name == name {
			r.Metrics[name] = metric{Value: v, Unit: m.unit}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// fail counts one failed op and keeps the first offender.
func (r *record) fail(msg string) {
	r.Failed++
	if r.FirstFail == "" {
		r.FirstFail = msg
	}
}

// commitID reads the checked-out commit from .git, without running
// git: "unknown" outside a repository (the driver's checkout is none).
func commitID() string {
	root := checkoutRoot()
	if root == "" {
		return "unknown"
	}
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: "); err == nil && ok {
		head, err = os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref)))
	}
	if err != nil || len(head) < 12 {
		return "unknown"
	}
	return string(head[:12])
}

// runCycles drives every client through the given number of whole
// cycles of the session and returns the samples, the failures and the
// wall time. seqs holds each client's next op number and is advanced.
func runCycles(s session, w *workloadSpec, seqs []int, cycles int, tr *tracer) ([]sample, []string, time.Duration) {
	n := cycles * w.cycleLen()
	perClient := make([][]sample, w.clients)
	fails := make([][]string, w.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			perClient[c] = make([]sample, 0, n)
			for i := 0; i < n; i++ {
				t0 := time.Now()
				res := s.do(c, seqs[c], tr)
				perClient[c] = append(perClient[c], sample{ns: int64(time.Since(t0)), class: res.class})
				if !res.ok {
					fails[c] = append(fails[c], res.msg)
				}
				seqs[c]++
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	var allFails []string
	for c := range perClient {
		all = append(all, perClient[c]...)
		allFails = append(allFails, fails[c]...)
	}
	return all, allFails, wall
}

// runWorkload performs one untraced run: e.setups complete set-ups (all
// but the last torn down again), the discarded warm-up inside each,
// then the timed rounds on the last, a yardstick slot around the
// set-ups and around every round, and fills every end-to-end metric.
func runWorkload(e *env, w workload, seconds float64) (*record, error) {
	spec := w.spec()
	rec := newRecord(spec, e, seconds, false)
	seqs := make([]int, spec.clients)

	var s session
	yard := yardSlot(e.yardCalls)
	for i := 0; i < e.setups; i++ {
		if s != nil {
			s.close()
		}
		e.excluded, e.stages = 0, nil
		t0 := time.Now()
		var err error
		if s, err = w.setUp(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
		}
		// The warm-up grows the heap and fills the caches the workload
		// has; users pay it once per start, so it is set-up.
		// Its answers are not counted: an op that answers wrongly here
		// does so in the timed rounds too, where ok_share shows it.
		runCycles(s, spec, seqs, spec.warmCycles, nil)
		rec.SetupsS = append(rec.SetupsS, (time.Since(t0) - e.excluded).Seconds())
	}
	defer s.close()
	before := yard
	yard = yardSlot(e.yardCalls)
	rec.SetupSpeed = yardRefMS / ((before + yard) / 2)

	var all []sample
	rec.YardMS = append(rec.YardMS, yard)
	for r := 0; r < rounds; r++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := processCPU()
		samples, fails, wall := runCycles(s, spec, seqs, spec.roundCycles(seconds), nil)
		cpu1 := processCPU()
		runtime.ReadMemStats(&m1)
		for _, f := range fails {
			rec.fail(f)
		}
		all = append(all, samples...)
		roundLat := make([]float64, len(samples))
		for i, sm := range samples {
			roundLat[i] = float64(sm.ns) / 1e6
		}
		rec.Rounds = append(rec.Rounds, roundStats{
			Ops:     len(samples),
			WallS:   wall.Seconds(),
			OpsPerS: float64(len(samples)) / wall.Seconds(),
			P50MS:   percentile(roundLat, 50),
			P95MS:   percentile(roundLat, 95),
			CPUMS:   (cpu1 - cpu0).Seconds() * 1000,
			mallocs: m1.Mallocs - m0.Mallocs,
			bytes:   m1.TotalAlloc - m0.TotalAlloc,
		})
		before := yard
		yard = yardSlot(e.yardCalls)
		rec.YardMS = append(rec.YardMS, yard)
		rec.Rounds[r].Speed = yardRefMS / ((before + yard) / 2)
	}
	rec.Attempted = len(all)
	if n, ok := s.(noter); ok {
		var err error
		if rec.Notes, err = n.notes(); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
	}

	// Every time is brought to reference speed with the speed of its own
	// round: a slower machine stretches times, so they shrink by its
	// speed. ops_per_s is the median of the rounds' rates, so a stall of a
	// second or two (this sandbox has them, above all on the file opens
	// of stored_cold) spoils one round, not the run; the percentiles pool
	// the scaled latencies of all rounds, where such a stall is a few
	// samples in the tail.
	var speeds, rates, rawRates []float64
	var cpuMS, rawCPUMS float64
	var mallocs, bytes uint64
	lat := make([]float64, 0, len(all))
	rawLat := make([]float64, 0, len(all))
	byClass := make([][]float64, len(spec.classes))
	for i, r := range rec.Rounds {
		speeds = append(speeds, r.Speed)
		rates, rawRates = append(rates, r.OpsPerS/r.Speed), append(rawRates, r.OpsPerS)
		cpuMS, rawCPUMS = cpuMS+r.CPUMS*r.Speed, rawCPUMS+r.CPUMS
		mallocs += r.mallocs
		bytes += r.bytes
		for _, sm := range all[i*r.Ops : (i+1)*r.Ops] {
			ms := float64(sm.ns) / 1e6
			rawLat, lat = append(rawLat, ms), append(lat, ms*r.Speed)
			byClass[sm.class] = append(byClass[sm.class], ms*r.Speed)
		}
	}
	rec.P95Samples = len(lat) - int(math.Ceil(0.95*float64(len(lat))))
	rec.ClassP50MS = map[string]float64{}
	for i, c := range spec.classes {
		if len(byClass[i]) > 0 {
			rec.ClassP50MS[c.name] = median(byClass[i])
		}
	}
	ops := float64(len(all))
	rec.Speed = median(speeds)
	rec.Unscaled = map[string]float64{
		"setup_s":       median(rec.SetupsS),
		"ops_per_s":     median(rawRates),
		"lat_p50_ms":    percentile(rawLat, 50),
		"lat_p95_ms":    percentile(rawLat, 95),
		"cpu_ms_per_op": rawCPUMS / ops,
	}
	rec.set(endToEnd, "setup_s", median(rec.SetupsS)*rec.SetupSpeed)
	rec.set(endToEnd, "ops_per_s", median(rates))
	rec.set(endToEnd, "lat_p50_ms", percentile(lat, 50))
	rec.set(endToEnd, "lat_p95_ms", percentile(lat, 95))
	rec.set(endToEnd, "ok_share", (ops-float64(rec.Failed))/ops)
	rec.set(endToEnd, "cpu_ms_per_op", cpuMS/ops)
	rec.AllocsPerOp = float64(mallocs) / ops
	rec.set(endToEnd, "alloc_kb_per_op", float64(bytes)/1024/ops)
	return rec, nil
}

// processCPU returns the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB (Linux
// reports ru_maxrss in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, 50)
}

// percentileSorted returns the p-th percentile of ascending xs by
// linear interpolation between closest ranks.
func percentileSorted(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}
