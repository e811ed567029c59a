package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/store"
)

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
			src := t.TempDir()
			if err := store.Save(db, src); err != nil {
				t.Fatal(err)
			}
			m, err := store.ReadManifest(src)
			if err != nil {
				t.Fatal(err)
			}
			part, err := os.ReadFile(filepath.Join(src, m.Relations[0].Parts[0].File))
			if err != nil {
				t.Fatal(err)
			}
			m.WAL, m.Epoch = store.WALFileName(1), 1
			edit(m)
			man, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/store/manifest":
					w.Write(man)
				case "/worlds":
					w.Write(store.EncodeWorldTable(db.W))
				case "/store/file": // the one partition file, under any name
					w.Write(part)
				default:
					http.NotFound(w, r)
				}
			}))
			defer primary.Close()
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
