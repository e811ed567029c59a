package urel_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestBenchmarkModule compiles, vets and tests the gated benchmark.
// benchmark/ is a module of its own (it may not be a package of this
// one, see its README), so `go build ./... && go test ./...` does not
// reach it: without this test a signature change under internal/ breaks
// the gate silently. CI runs the same two commands as a step.
//
// It also pins the import graphs that keep one harness one: the gate
// and the product binaries link neither internal/bench (the paper's
// figures) nor a paper baseline, and urquery, which borrows
// bench.RunQuery, does not drag the server in with it.
func TestBenchmarkModule(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark module's own tests (~15 s)")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	for _, args := range [][]string{
		{"-C", "benchmark", "vet", "./..."},
		{"-C", "benchmark", "test", "./..."},
	} {
		if out, err := exec.Command(goBin, args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}

	paperOnly := []string{"urel/internal/bench", "/uldb", "/wsd"}
	for _, tc := range []struct {
		args   []string
		banned []string
	}{
		{[]string{"-C", "benchmark", "list", "-deps", "."}, paperOnly},
		{[]string{"list", "-deps", "./cmd/urserved", "./cmd/urgen"}, paperOnly},
		{[]string{"list", "-deps", "./cmd/urquery"}, []string{"urel/internal/server", "urel/internal/cluster"}},
	} {
		out, err := exec.Command(goBin, tc.args...).CombinedOutput()
		if err != nil {
			t.Fatalf("go %v: %v\n%s", tc.args, err, out)
		}
		for _, pkg := range strings.Fields(string(out)) {
			for _, b := range tc.banned {
				if strings.Contains(pkg, b) {
					t.Errorf("go %v: links %s", tc.args, pkg)
				}
			}
		}
	}
}
