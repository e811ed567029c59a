package txn

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"urel/internal/store"
)

// TestEveryWriterSyncsItsFilesBeforeTheManifest: Save, ShardedSave, a
// flush, a compaction and CREATE INDEX each sync every file they add to
// the directory — the segment files and world table the new manifest
// names, its log, and the index runs beside its layers — before they
// sync the manifest's temporary file, and sync the directory once,
// after it. Every file the new manifest names is on disk.
func TestEveryWriterSyncsItsFilesBeforeTheManifest(t *testing.T) {
	ins, del := "insert into r values (41, 42, 43)", "delete from s where x = 1"
	for _, c := range []struct {
		name string
		// prep, unless empty, is run on a saved, opened store before the
		// syncs are logged, and flushed when flush is set.
		prep  []string
		flush bool
		write func(dirs []string, d *DB) error
		dirs  int // the directories the write commits to
	}{
		{"Save", nil, false, func(dirs []string, d *DB) error { return store.Save(fixtureDB(), dirs[0]) }, 1},
		{"ShardedSave", nil, false, func(dirs []string, d *DB) error {
			return store.ShardedSave(fixtureDB(), dirs, []string{"r"})
		}, 2},
		{"flush", []string{"create index on r(a)", ins, del}, false, func(dirs []string, d *DB) error { return d.Flush() }, 1},
		{"compaction", []string{"create index on r(a)", ins, del}, true, func(dirs []string, d *DB) error { return d.Compact() }, 1},
		{"CREATE INDEX", []string{ins}, true, func(dirs []string, d *DB) error {
			_, err := d.Exec("create index on r(b)")
			return err
		}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			var dirs []string
			for i := 0; i < c.dirs; i++ {
				dirs = append(dirs, t.TempDir())
			}
			var d *DB
			if c.prep != nil {
				d = openSaved(t, dirs[0])
				for _, sql := range c.prep {
					if _, err := d.Exec(sql); err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
				}
				if c.flush {
					if err := d.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := map[string]bool{}
			for _, dir := range dirs {
				for _, name := range dirNames(t, dir) {
					before[filepath.Join(dir, name)] = true
				}
			}
			var mu sync.Mutex
			var synced []string
			restore := store.SetIOFaultHook(func(op, path string) error {
				mu.Lock()
				defer mu.Unlock()
				if op == "sync" {
					synced = append(synced, path)
				}
				return nil
			})
			err := c.write(dirs, d)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			for _, dir := range dirs {
				commit := slices.Index(synced, filepath.Join(dir, store.CatalogName+".tmp"))
				if commit < 0 {
					t.Fatalf("the manifest of %s was never synced: %v", dir, synced)
				}
				added := 0
				for _, name := range dirNames(t, dir) {
					path := filepath.Join(dir, name)
					if before[path] || name == store.CatalogName {
						continue
					}
					added++
					if i := slices.Index(synced, path); i < 0 || i > commit {
						t.Errorf("%s was not synced before the manifest: %v", name, synced)
					}
				}
				if added == 0 {
					t.Errorf("the write added no file to %s", dir)
				}
				if i := slices.Index(synced, dir); i < commit || slices.Index(synced[i+1:], dir) >= 0 {
					t.Errorf("want one directory sync, after the manifest: %v", synced)
				}
				man, err := store.ReadManifest(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range append(man.Files(), man.WAL, store.WorldsName) {
					if _, err := os.Stat(filepath.Join(dir, name)); name != "" && err != nil {
						t.Errorf("the manifest names %s: %v", name, err)
					}
				}
			}
		})
	}
}

// TestJSONCatalogRewrittenAtFirstFlush: a store whose manifest is JSON
// at format version 3, as an earlier build wrote it after its first
// writable open, opens for writing as it is, and its first flush leaves
// the catalog layout in its place, with the existence bits the JSON
// held, all clear here.
func TestJSONCatalogRewrittenAtFirstFlush(t *testing.T) {
	dir := t.TempDir()
	openSaved(t, dir).Close()
	m, err := store.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Version = 3
	for i := range m.Relations {
		m.Relations[i].ExistenceComplete = false
	}
	v3, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, store.CatalogName)
	if err := os.WriteFile(path, v3, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, Options{DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, v3) {
		t.Fatalf("the open rewrote the JSON catalog (%v)", err)
	}
	if _, err := d.Exec("insert into r values (41, 42, 43)"); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.ParseManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] == '{' || got.Version != store.FormatVersion || !bytes.Equal(b, store.EncodeManifest(got)) {
		t.Fatalf("the first flush left %.40q, not the catalog layout", b)
	}
	for _, mr := range got.Relations {
		if mr.ExistenceComplete {
			t.Fatalf("relation %s came back existence-complete", mr.Name)
		}
	}
}

// openSaved saves the fixture to dir and opens it for writing, closed
// when the test ends.
func openSaved(t *testing.T, dir string) *DB {
	t.Helper()
	if err := store.Save(fixtureDB(), dir); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, Options{DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// dirNames lists the names in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}
