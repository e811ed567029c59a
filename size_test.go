package urel_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestSizeBudget holds the code to the sizes it has reached, counted as
// CI's sizes step counts them: the non-test lines of each internal/
// package (the .go files of its own directory), of cluster and server
// together, and the test lines of the module outside benchmark/. Each
// count has a ceiling written here. A change that deletes code lowers
// its ceilings in the same diff; one that grows a package raises its
// ceiling and says why in CHANGES.md. ROADMAP's targets stand beside
// them: engine ≤ 5.5k lines, cluster + server ≤ 4.0k.
func TestSizeBudget(t *testing.T) {
	ceilings := map[string]int{
		"internal/bench":    554,
		"internal/cluster":  2434,
		"internal/core":     3721,
		"internal/engine":   6640,
		"internal/obs":      815,
		"internal/server":   2160,
		"internal/sqlparse": 879,
		"internal/store":    5448,
		"internal/tpch":     774,
		"internal/txn":      1900,
		"internal/ws":       642,
		"cluster + server":  4594,
		"test lines":        28296,
	}
	lines := func(path string) int {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(b, []byte("\n"))
	}
	got := map[string]int{}
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				got[filepath.ToSlash(dir)] += lines(f)
			}
		}
	}
	got["cluster + server"] = got["internal/cluster"] + got["internal/server"]
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == "benchmark" || path == ".git"):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, "_test.go"):
			got["test lines"] += lines(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ceiling, ok := ceilings[name]
		switch {
		case !ok:
			t.Errorf("%s: %d lines and no ceiling", name, got[name])
		case got[name] > ceiling:
			t.Errorf("%s: %d lines, over its ceiling of %d", name, got[name], ceiling)
		default:
			t.Logf("%-18s %6d lines, ceiling %6d", name, got[name], ceiling)
		}
	}
}
