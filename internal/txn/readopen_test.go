package txn

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/store"
	"urel/internal/tpch"
)

// TestReadOnlyOpenSeesWALCommits: a plain store.Open of a directory a
// writer committed to (without flushing) must replay the WAL read-only
// and serve the committed state — unflushed inserts, deletes, and
// updates included — without modifying any file.
func TestReadOnlyOpenSeesWALCommits(t *testing.T) {
	d, ref := openFixture(t)
	exec(t, d, ref, "insert into r values (41, 42, 43)")
	exec(t, d, ref, "delete from r where a = 1")
	exec(t, d, ref, "update r set c = 7 where a = 3")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := store.Open(d.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if msg, ok := equalDump(dump(t, ro), dump(t, ref.db)); !ok {
		t.Fatalf("read-only open diverged from committed state: %s", msg)
	}
	got := possRows(t, ro, core.Select(core.Rel("r"),
		engine.Cmp(engine.EQ, engine.Col("a"), engine.ConstInt(41))))
	if len(got) != 1 {
		t.Fatalf("read-only open misses the unflushed insert: %v", got)
	}

	// And the writer can still reopen afterwards (the read-only open
	// must not have truncated or rotated anything).
	d2, err := Open(d.Dir(), Options{DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	requireSame(t, d2, ref, "writable reopen after read-only open")
}

// TestOnlyTheCurrentLayoutOpens: a store opens a version-3 manifest over
// URSEGv2 files whose value columns match the manifest's attributes, all
// named plainly inside the directory, and nothing else. A URSEGv1 file
// under a version-3 manifest, a version-1 or version-2 manifest, a file
// with fewer value columns than its partition's attributes, a base,
// delta or log name reaching out of the directory, and a log record that
// passes its frame checksum but does not decode each fail store.Open and
// Open with an ErrCorrupt that names the file — the catalog, the
// partition file or the log — and, for an older format, says how to
// bring it up to date; a refused catalog's error says nothing of
// segments. Nothing outside the directory is created.
func TestOnlyTheCurrentLayoutOpens(t *testing.T) {
	for _, c := range []struct {
		name, want string // want: the file the error names
		older      bool   // an older format: the error names the way out
		edit       func(t *testing.T, dir string, m *store.Manifest)
	}{
		{"URSEGv1 file", "r0_p0.useg", true, func(t *testing.T, dir string, m *store.Manifest) {
			path := filepath.Join(dir, m.Relations[0].Parts[0].File)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append([]byte("URSEGv1\n"), b[8:]...), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"version 1", store.CatalogName, true, func(t *testing.T, dir string, m *store.Manifest) { m.Version = 1 }},
		{"version 2", store.CatalogName, true, func(t *testing.T, dir string, m *store.Manifest) { m.Version = 2 }},
		{"an attribute the file lacks", "r1_p0.useg", false, func(t *testing.T, dir string, m *store.Manifest) {
			s := &m.Relations[1]
			s.Attrs = append(s.Attrs, "bogus")
			s.Parts[0].Attrs = append(s.Parts[0].Attrs, "bogus")
		}},
		{"base outside", "../outside.useg", false, func(t *testing.T, dir string, m *store.Manifest) {
			m.Relations[0].Parts[0].File = "../outside.useg"
		}},
		{"delta outside", "../outside.useg", false, func(t *testing.T, dir string, m *store.Manifest) {
			mp := &m.Relations[0].Parts[0]
			mp.Deltas = []store.ManifestDelta{{File: "../outside.useg", Rows: mp.Rows, Width: mp.Width}}
		}},
		{"log outside", "../outside.log", false, func(t *testing.T, dir string, m *store.Manifest) { m.WAL = "../outside.log" }},
		{"undecodable log record", store.WALFileName(1), false, func(t *testing.T, dir string, m *store.Manifest) {
			w, err := store.CreateWAL(filepath.Join(dir, store.WALFileName(1)))
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if err := w.Append([]byte{0xFF}); err != nil { // a count cut short
				t.Fatal(err)
			}
			m.WAL = store.WALFileName(1)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "db")
			if err := store.Save(fixtureDB(), dir); err != nil {
				t.Fatal(err)
			}
			m, err := store.ReadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			// A valid partition file outside the directory, where an
			// escaping name would find it.
			b, err := os.ReadFile(filepath.Join(dir, m.Relations[0].Parts[0].File))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(root, "outside.useg"), b, 0o644); err != nil {
				t.Fatal(err)
			}
			c.edit(t, dir, m)
			if err := store.WriteManifest(dir, m); err != nil {
				t.Fatal(err)
			}
			check := func(how string, err error) {
				t.Helper()
				if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), c.want) ||
					c.older && !strings.Contains(err.Error(), "store.Save") ||
					c.want == store.CatalogName && strings.Contains(err.Error(), "segment") {
					t.Errorf("%s: err = %v, want ErrCorrupt naming %s (and, for the catalog, no segment)", how, err, c.want)
				}
			}
			db, err := store.Open(dir)
			if err == nil {
				db.Close()
			}
			check("store.Open", err)
			d, err := Open(dir, Options{DisableAutoFlush: true})
			if err == nil {
				d.Close()
			}
			check("txn.Open", err)
			if ents, _ := os.ReadDir(root); len(ents) != 2 {
				t.Errorf("%d entries beside the directory, want the directory and outside.useg", len(ents))
			}
		})
	}
}

// TestConcurrentOpenCorruptNamesFirstFile: the opener's goroutines take
// a manifest's files in any interleaving, yet with two partition files
// corrupt, store.Open and Open fail on every try with an ErrCorrupt
// naming the first of the two in manifest order, and leave no file
// open. A successful open hands each file to the part-open interceptor
// exactly once.
func TestConcurrentOpenCorruptNamesFirstFile(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	p := tpch.DefaultParams(0.01, 0.01, 0.25)
	p.Seed = 1
	db, _, err := tpch.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := store.Save(db, dir); err != nil {
		t.Fatal(err)
	}
	man, err := store.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := man.Files()
	var mu sync.Mutex
	seen := map[string]int{}
	restore := store.SetPartOpenInterceptor(func(path string, src io.ReaderAt) io.ReaderAt {
		mu.Lock()
		seen[filepath.Base(path)]++
		mu.Unlock()
		return src
	})
	defer restore()
	openedOnce := func(how string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if len(seen) != len(files) {
			t.Fatalf("%s opened %d files of %d", how, len(seen), len(files))
		}
		for _, f := range files {
			if seen[f] != 1 {
				t.Fatalf("%s opened %s %d times", how, f, seen[f])
			}
		}
		clear(seen)
	}
	ro, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ro.Close()
	openedOnce("store.Open")
	d, err := Open(dir, Options{DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	openedOnce("Open")

	first, second := files[5], files[len(files)-3]
	for _, f := range []string{first, second} {
		path := filepath.Join(dir, f)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append([]byte("URSEGv0\n"), b[8:]...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1
		}
		return len(entries)
	}
	before := fds()
	for try := 0; try < 20; try++ {
		ro, err := store.Open(dir)
		if err == nil {
			ro.Close()
		}
		d, derr := Open(dir, Options{DisableAutoFlush: true})
		if derr == nil {
			d.Close()
		}
		for how, err := range map[string]error{"store.Open": err, "Open": derr} {
			if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), first) || strings.Contains(err.Error(), second) {
				t.Fatalf("try %d: %s: err = %v, want ErrCorrupt naming %s alone", try, how, err, first)
			}
		}
	}
	if after := fds(); after != before {
		t.Fatalf("%d open files before 20 failed opens of each kind, %d after", before, after)
	}
}
