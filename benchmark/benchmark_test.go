package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// tinySizes make every workload a miniature: tens of rows, ops of a
// millisecond.
var tinySizes = sizes{mem: 0.005, stored: 0.02}

func testEnv(t *testing.T, seed int64) *env {
	t.Helper()
	cl := &cleanup{}
	tmp := t.TempDir()
	t.Cleanup(cl.runAll)
	return &env{seed: seed, size: tinySizes, setups: 2, yardCalls: 1, tmpRoot: tmp, cl: cl}
}

// benchmarkJSON is the driver's view of the benchmark.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestSpecMatchesBenchmarkJSON: every metric and workload named in
// BENCHMARK.json is declared by the harness and the other way round,
// within the contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q/%q, harness %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks a limit", w.Name)
		}
		if newWorkload(w.Name) == nil {
			t.Errorf("workload %q has no driver", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(doc.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, m := range doc.EndToEnd {
		h := endToEnd[i]
		if m.Name != h.name || m.Unit != h.unit || m.Better != h.better || m.Bound != h.bound {
			t.Errorf("end-to-end %d: %+v, harness %+v", i, m, h)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || seen[m.Name] {
			t.Errorf("end-to-end %q breaks a limit", m.Name)
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s")
	}
	if len(doc.PerLayer) != len(perLayer) || len(doc.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		h := perLayer[i]
		if m.Name != h.name || m.Unit != h.unit || m.Better != h.better {
			t.Errorf("per-layer %d: %+v, harness %+v", i, m, h)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer %q breaks a limit", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestPercentilePlacement: neither the median nor the 95th percentile
// lies within five points of the step between two cost classes, and
// each cycle holds exactly the ops its classes declare.
func TestPercentilePlacement(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, b := range w.boundaries() {
			for _, p := range []float64{50, 95} {
				if math.Abs(p-b) < 5 {
					t.Errorf("%s: p%.0f is %.1f points from the class boundary at %.1f%%", w.name, p, math.Abs(p-b), b)
				}
			}
		}
	}
	counts := func(classes []int, n int) []int {
		out := make([]int, n)
		for _, c := range classes {
			out[c]++
		}
		return out
	}
	mix := make([]int, len(servedMixCycle))
	stmts := mixStatements(1000, 100)
	for i, idx := range servedMixCycle {
		mix[i] = mixPoint
		if idx >= 0 {
			mix[i] = stmts[idx].class
		}
	}
	for name, got := range map[string][]int{
		"paper_mem":   counts(paperMemCycle, 6),
		"stored_cold": counts(storedColdCycle, 4),
		"served_mix":  counts(mix, 6),
		"served_rw":   counts(rwStepClass[:], 4),
	} {
		for i, c := range findWorkload(name).classes {
			if got[i] != c.count {
				t.Errorf("%s: cycle has %d ops of class %s, spec says %d", name, got[i], c.name, c.count)
			}
		}
	}
}

// TestSelfTimes: a span's self time is its duration minus what its
// children cover; overlapping children are not subtracted twice and a
// child is clipped to its parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: 0, Layer: layerBench, Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Layer: "core", Start: 10, End: 30},
		{ID: 2, Parent: 0, Op: 0, Layer: "engine", Start: 20, End: 60}, // overlaps span 1 by 10
		{ID: 3, Parent: 2, Op: 0, Layer: "store", Start: 25, End: 35},
		{ID: 4, Parent: 0, Op: 0, Layer: "store", Start: 90, End: 120}, // runs past its parent
	}
	want := []int64{100 - (20 + 30 + 10), 20, 40 - 10, 10, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got[i], want[i])
		}
	}
	byLayer, total := layerSelf(spans)
	if total != 100 || byLayer["store"] != 40 || byLayer[layerBench] != 40 {
		t.Errorf("layerSelf = %v, total %d", byLayer, total)
	}
}

// TestSpreadMatchesPythonQuantiles pins spread to
// statistics.quantiles(values, n=4) on a worked example.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{10, 12, 11, 15, 13, 14, 19, 16, 18, 17}
	// Python: quantiles -> [11.75, 14.5, 17.25]; median 14.5.
	if got, want := spread(xs), (17.25-11.75)/14.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// waitGoroutines waits for the goroutine count to come back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the run:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMiniatureRunsLeaveNothingBehind runs a miniature of every
// workload, untraced and traced, on two seeds: every op is correct,
// every metric is reported, and afterwards the goroutines are gone and
// the temp root is empty.
func TestMiniatureRunsLeaveNothingBehind(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, seed := range []int64{1, 2} {
		e := testEnv(t, seed)
		for _, spec := range workloads {
			rec, err := runWorkload(e, newWorkload(spec.name), 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 || rec.Metrics["ok_share"].Value != 1 {
				t.Errorf("%s seed %d: %d failed, first: %s", spec.name, seed, rec.Failed, rec.FirstFail)
			}
			if rec.Attempted < rounds*spec.cycleLen()*spec.clients {
				t.Errorf("%s: %d ops attempted", spec.name, rec.Attempted)
			}
			for _, m := range endToEnd {
				if v, ok := rec.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
					t.Errorf("%s: metric %s = %+v", spec.name, m.name, v)
				}
			}
			// Every round lies between two yardstick slots, and a time at
			// reference speed is the clock's time times the machine's speed.
			if len(rec.YardMS) != rounds+1 || rec.Speed <= 0 || rec.SetupSpeed <= 0 {
				t.Errorf("%s: %d yardstick slots, speed %v, set-up speed %v", spec.name, len(rec.YardMS), rec.Speed, rec.SetupSpeed)
			}
			if got, want := rec.Metrics["setup_s"].Value, rec.Unscaled["setup_s"]*rec.SetupSpeed; math.Abs(got-want) > 1e-9*want {
				t.Errorf("%s: setup_s = %v, want %v", spec.name, got, want)
			}
			if seed != 1 {
				continue // one traced pass per workload is enough
			}
			rec, err = runTraced(e, newWorkload(spec.name), 0.05, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 {
				t.Errorf("%s traced: %d failed, first: %s", spec.name, rec.Failed, rec.FirstFail)
			}
			for _, m := range perLayer {
				if _, ok := rec.Metrics[m.name]; !ok {
					t.Errorf("%s traced: metric %s missing", spec.name, m.name)
				}
			}
			if _, err := os.Stat(rec.TraceOut); err != nil {
				t.Errorf("%s traced: span file: %v", spec.name, err)
			}
			// Served ops of a millisecond are mostly fixed costs no stage
			// of the shadow replay has; the full-size run attributes them.
			if un := rec.Metrics["bench.spans_unattributed_pct"].Value; un > 10 && !strings.HasPrefix(spec.name, "served_") {
				t.Errorf("%s traced: %.1f%% of op time unattributed", spec.name, un)
			}
			if spec.name != "served_rw" && rec.Metrics["share.txn_pct"].Value != 0 {
				t.Errorf("%s traced: txn share %v", spec.name, rec.Metrics["share.txn_pct"].Value)
			}
		}
		left, err := os.ReadDir(e.tmpRoot)
		if err != nil || len(left) > 0 {
			t.Errorf("temp root after the runs: %v %v", left, err)
		}
	}
	waitGoroutines(t, base)
}

// TestSessionsCloseTheirListeners: after a served session closes, its
// port refuses connections.
func TestSessionsCloseTheirListeners(t *testing.T) {
	e := testEnv(t, 3)
	for _, w := range []workload{&servedMix{}, &servedRW{}} {
		s, err := w.setUp(e)
		if err != nil {
			t.Fatal(err)
		}
		var sv *served
		switch ss := s.(type) {
		case *servedMixSession:
			sv = ss.served
		case *servedRWSession:
			sv = ss.served
		}
		addr := strings.TrimPrefix(sv.node.url, "http://")
		if !strings.HasPrefix(addr, "127.0.0.1:") {
			t.Errorf("%s listens on %s", w.spec().name, addr)
		}
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatalf("%s: live server refused: %v", w.spec().name, err)
		}
		conn.Close()
		s.close()
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			t.Errorf("%s: %s still accepts connections after close", w.spec().name, addr)
		}
	}
}

// TestCorruptExpectationIsCaught: with one expected answer corrupted,
// ok_share drops below 1, the first offending statement is named, and
// the command's exit status is not 0.
func TestCorruptExpectationIsCaught(t *testing.T) {
	e := testEnv(t, 4)
	w := &paperMem{}
	s, err := w.setUp(e) // computes the expectations
	if err != nil {
		t.Fatal(err)
	}
	s.close()
	w.expect[q3Hi].hash++ // the dearest class, whose one-row answer is easiest to lose
	rec, err := runWorkload(e, w, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if ok := rec.Metrics["ok_share"].Value; ok >= 1 || rec.Failed == 0 {
		t.Errorf("ok_share = %v, failed = %d", ok, rec.Failed)
	}
	if !strings.Contains(rec.FirstFail, "Q3") {
		t.Errorf("first failure %q does not name the statement", rec.FirstFail)
	}
	var out bytes.Buffer
	if printRecord(&out, rec) {
		t.Error("printRecord reports a run with failed ops as correct")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct || last.Failed != rec.Failed || last.Attempted != rec.Attempted || len(last.Metrics) != len(endToEnd) {
		t.Errorf("last line: %+v", last)
	}
}

// TestSeedChangesInputs: two seeds give different data (so different
// expected answers, none of them empty) and different point-lookup
// literals; both reach ok_share = 1 in the miniature runs above.
func TestSeedChangesInputs(t *testing.T) {
	var expect [2][]answer
	for i := range expect {
		e := testEnv(t, int64(i+1))
		w := &paperMem{}
		s, err := w.setUp(e)
		if err != nil {
			t.Fatal(err)
		}
		s.close()
		expect[i] = w.expect
		// No class goes unchecked: every expected answer has rows, Q3's
		// too, whose nation literals come from the data.
		for cls, a := range w.expect {
			if a.rows == 0 {
				t.Errorf("seed %d: class %s expects an empty answer", i+1, w.spec().classes[cls].name)
			}
		}
	}
	if reflect.DeepEqual(expect[0], expect[1]) {
		t.Errorf("seeds 1 and 2 expect the same answers: %v", expect[0])
	}
	ka, kb := newKeyStream(1, 3750), newKeyStream(2, 3750)
	same := 0
	for i := 0; i < 100; i++ {
		if ka.key(i) == kb.key(i) {
			same++
		}
	}
	if same > 10 {
		t.Errorf("%d of 100 keys agree between seeds", same)
	}
}

// TestCommand drives the command itself: flags as the driver passes
// them, exit status 0, the last line the driver's object; a bad flag
// and an unknown workload exit non-zero; nothing is left in the
// checkout's scratch directory.
func TestCommand(t *testing.T) {
	// The first signal.Notify of a process starts os/signal's loop
	// goroutine for good; start it before counting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGUSR1)
	signal.Stop(sig)
	base := runtime.NumGoroutine()
	defer func(full sizes, calls int) { defaultSizes, defaultYardCalls = full, calls }(defaultSizes, defaultYardCalls)
	defaultSizes, defaultYardCalls = tinySizes, 1
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "served_rw", "--seed", "5", "--seconds", "0.05", "--trace", "0"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("last line has keys %v", last)
	}
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Error("unknown workload exits 0")
	}
	if code := run([]string{"--bogus"}, &out, &errOut); code == 0 {
		t.Error("unknown flag exits 0")
	}
	if root := checkoutRoot(); root != "" {
		left, _ := filepath.Glob(filepath.Join(root, ".bench_build", "tmp", "run-*"))
		if len(left) > 0 {
			t.Errorf("scratch directories left behind: %v", left)
		}
	}
	waitGoroutines(t, base)
}

// TestCleanupStack: release runs a function once and drops it; runAll
// runs the rest newest first; a push after runAll runs at once.
func TestCleanupStack(t *testing.T) {
	var order []int
	cl := &cleanup{}
	cl.push(func() { order = append(order, 1) })
	rel := cl.push(func() { order = append(order, 2) })
	cl.push(func() { order = append(order, 3) })
	rel()
	rel()
	cl.runAll()
	cl.push(func() { order = append(order, 4) })
	if !reflect.DeepEqual(order, []int{2, 3, 1, 4}) {
		t.Errorf("order = %v, want [2 3 1 4]", order)
	}
}
