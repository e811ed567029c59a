package urel_test

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModule compiles, vets and tests the gated benchmark.
// benchmark/ is a module of its own (it may not be a package of this
// one, see its README), so `go build ./... && go test ./...` does not
// reach it: without this test a signature change under internal/ breaks
// the gate silently. CI runs the same two commands as a step.
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
}
