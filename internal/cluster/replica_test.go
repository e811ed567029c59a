package cluster

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/store"
)

// fakePrimary saves db and serves what a replica's bootstrap fetches of
// it: its manifest, made writable and passed through edit, its world
// table, and a partition file by name, or the first one under any name
// when anyName is set. It returns the server and the manifest served.
func fakePrimary(t *testing.T, db *core.UDB, edit func(*store.Manifest), anyName bool) (*httptest.Server, *store.Manifest) {
	t.Helper()
	src := t.TempDir()
	if err := store.Save(db, src); err != nil {
		t.Fatal(err)
	}
	m, err := store.ReadManifest(src)
	if err != nil {
		t.Fatal(err)
	}
	first := m.Relations[0].Parts[0].File
	m.WAL, m.Epoch = store.WALFileName(1), 1
	edit(m)
	man := store.EncodeManifest(m)
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch name := filepath.Base(r.URL.Query().Get("name")); r.URL.Path {
		case "/store/manifest":
			w.Write(man)
		case "/worlds":
			w.Write(store.EncodeWorldTable(db.W))
		case "/store/file":
			if anyName {
				name = first
			}
			b, err := os.ReadFile(filepath.Join(src, name))
			if err != nil {
				http.NotFound(w, r)
				return
			}
			w.Write(b)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(primary.Close)
	return primary, m
}

// TestResyncRefusesEscapingNames: a primary whose manifest names a
// segment file or a log outside the directory fails the replica's
// bootstrap at the manifest, with ErrCorrupt: the replica writes, opens
// and removes nothing outside its own directory.
func TestResyncRefusesEscapingNames(t *testing.T) {
	for name, edit := range map[string]func(*store.Manifest){
		"segment file": func(m *store.Manifest) { m.Relations[0].Parts[0].File = "../outside.useg" },
		"log":          func(m *store.Manifest) { m.WAL = "../outside.log" },
	} {
		t.Run(name, func(t *testing.T) {
			db := core.NewUDB()
			db.MustAddRelation("r", "a")
			db.MustAddPartition("r", "u_r", "a").Add(nil, 1, engine.Int(1))
			primary, _ := fakePrimary(t, db, edit, true)
			root := t.TempDir()
			rep, err := OpenReplica(filepath.Join(root, "replica"), primary.URL, "db", ReplicaOptions{})
			if err == nil {
				rep.Close()
			}
			if !errors.Is(err, store.ErrCorrupt) {
				t.Errorf("err = %v, want ErrCorrupt", err)
			}
			if ents, _ := os.ReadDir(root); len(ents) != 1 {
				for _, e := range ents {
					t.Errorf("beside the replica's directory: %s", e.Name())
				}
			}
		})
	}
}

// TestResyncSyncsEveryFileBeforeTheManifest: a replica's bootstrap lands
// the world table and every partition file through a synced temporary
// file, and creates its log, before the manifest that names them commits;
// the one directory sync comes after that commit.
func TestResyncSyncsEveryFileBeforeTheManifest(t *testing.T) {
	db := core.NewUDB()
	db.MustAddRelation("r", "a", "b")
	db.MustAddPartition("r", "u_r_a", "a").Add(nil, 1, engine.Int(1))
	db.MustAddPartition("r", "u_r_b", "b").Add(nil, 1, engine.Int(2))
	primary, m := fakePrimary(t, db, func(*store.Manifest) {}, false)
	var mu sync.Mutex
	var synced []string
	defer store.SetIOFaultHook(func(op, path string) error {
		mu.Lock()
		defer mu.Unlock()
		if op == "sync" {
			synced = append(synced, path)
		}
		return nil
	})()
	dir := filepath.Join(t.TempDir(), "replica")
	rep, err := OpenReplica(dir, primary.URL, "db", ReplicaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep.Close()

	mu.Lock()
	defer mu.Unlock()
	at := func(path string) int {
		i := slices.Index(synced, path)
		if i < 0 {
			t.Fatalf("%s was never synced: %v", path, synced)
		}
		return i
	}
	commit := at(filepath.Join(dir, store.CatalogName+".tmp"))
	files := []string{store.WorldsName + ".tmp", m.WAL}
	for _, p := range m.Relations[0].Parts {
		files = append(files, p.File+".tmp")
	}
	for _, f := range files {
		if at(filepath.Join(dir, f)) > commit {
			t.Errorf("%s was synced after the manifest: %v", f, synced)
		}
	}
	dirSyncs := 0
	for _, p := range synced {
		if p == dir {
			dirSyncs++
		}
	}
	if dirSyncs != 1 || at(dir) < commit {
		t.Errorf("want one directory sync, after the manifest: %v", synced)
	}
}
