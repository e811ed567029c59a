// Command benchmark is the repository's gated benchmark: four
// workloads, seven end-to-end metrics (times brought to the speed of a
// reference machine, see yardstick.go), and a per-layer trace. It
// drives the system only through exported functions and what the
// server publishes, starts no child process, and removes everything
// it created before it exits. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func newWorkload(name string) workload {
	switch name {
	case "paper_mem":
		return &paperMem{}
	case "stored_cold":
		return &storedCold{}
	case "served_mix":
		return &servedMix{}
	case "served_rw":
		return &servedRW{}
	}
	return nil
}

// run is main without the exit: it parses the flags, runs what they
// ask for and returns the exit code. Everything registered on the
// cleanup stack is released before it returns, and on SIGINT/SIGTERM.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: paper_mem, stored_cold, served_mix, served_rw or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs (the data, the order of point-lookup keys)")
	seconds := fs.Float64("seconds", defaultSeconds, "nominal timed seconds per workload; sets the fixed number of cycles each of the ten rounds runs")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics instead")
	traceOut := fs.String("trace-out", "", "directory the span file is written to (default .bench_build/traces in the checkout)")
	selfcheck := fs.Int("selfcheck", 0, "run two interleaved sets of N runs per workload and compare their medians with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var names []string
	if *name == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if findWorkload(*name) != nil {
		names = []string{*name}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	// One process sized to the machine: the sandbox has two cores, and
	// more than four would only add scheduler noise to a one-client load.
	if runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}

	cl := &cleanup{}
	defer cl.runAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			cl.runAll()
			os.Exit(130)
		}
	}()
	defer func() { // ends the goroutine above
		signal.Stop(sig)
		close(sig)
	}()

	tmp, err := newTempRoot(cl)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	e := &env{seed: *seed, size: defaultSizes, setups: defaultSetups, yardCalls: defaultYardCalls, tmpRoot: tmp, cl: cl, log: stderr}

	if *selfcheck > 0 {
		return selfCheck(e, names, *seconds, *selfcheck, stdout)
	}

	code := 0
	for _, n := range names {
		var rec *record
		if *trace != 0 {
			dir := *traceOut
			if dir == "" {
				dir = defaultTraceDir()
			}
			rec, err = runTraced(e, newWorkload(n), *seconds, dir)
		} else {
			rec, err = runWorkload(e, newWorkload(n), *seconds)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		if !printRecord(stdout, rec) {
			code = 1
		}
	}
	return code
}

// defaultTraceDir keeps span files inside the checkout but out of git.
func defaultTraceDir() string {
	if root := checkoutRoot(); root != "" {
		return filepath.Join(root, ".bench_build", "traces")
	}
	return filepath.Join(os.TempDir(), "urel-bench-traces")
}

// printRecord prints one run three ways: every metric by name with
// its unit, the full record as one JSON object, and — last line — the
// object the driver reads. It reports whether every op was correct.
func printRecord(w io.Writer, rec *record) bool {
	names := sortedKeys(rec.Metrics)
	fmt.Fprintf(w, "# %s seed=%d seconds=%g clients=%d ops=%d failed=%d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Clients, rec.Attempted, rec.Failed)
	for _, n := range names {
		m := rec.Metrics[n]
		note := ""
		if n == "lat_p95_ms" {
			note = fmt.Sprintf("  (%d samples beyond it)", rec.P95Samples)
		}
		fmt.Fprintf(w, "%-34s %14.4f %s%s\n", n, m.Value, m.Unit, note)
	}
	if rec.Speed > 0 {
		fmt.Fprintf(w, "%-34s %14.4f of reference speed; the times above are scaled by it, as the clock read them:\n", "machine_speed", rec.Speed)
		for _, n := range sortedKeys(rec.Unscaled) {
			fmt.Fprintf(w, "  unscaled %-23s %14.4f\n", n, rec.Unscaled[n])
		}
	}
	if rec.AllocsPerOp > 0 {
		fmt.Fprintf(w, "%-34s %14.4f count  (ungated: repeats for one seed, not between seeds)\n", "allocs_per_op", rec.AllocsPerOp)
	}
	for _, n := range sortedKeys(rec.Notes) {
		fmt.Fprintf(w, "note %-29s %14.0f\n", n, rec.Notes[n])
	}
	if rec.FirstFail != "" {
		fmt.Fprintf(w, "first failure: %s\n", rec.FirstFail)
	}
	full, _ := json.Marshal(rec)
	fmt.Fprintf(w, "%s\n", full)
	correct := rec.Failed == 0
	last, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": rec.Attempted,
		"failed":    rec.Failed,
		"metrics":   rec.Metrics,
	})
	fmt.Fprintf(w, "%s\n", last)
	return correct
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
