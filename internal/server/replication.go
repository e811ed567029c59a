package server

import (
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"urel/internal/cluster"
	"urel/internal/store"
)

// Replication endpoints. A follower (cluster.Replica) bootstraps from
// /store/manifest + /store/file + /worlds and then tails /wal/stream;
// all four serve the catalog's durable on-disk state, so a replica
// built from them is a physical, crash-consistent clone.

// handleWorlds serves the catalog's world table in the worlds.bin byte
// format (store.EncodeWorldTable). Any locally-backed catalog can serve
// it — the coordinator fetches it too, for central certain/conf
// computation over gathered shard representations.
func (s *Server) handleWorlds(w http.ResponseWriter, r *http.Request) {
	entry, _, err := s.lookup(r.URL.Query().Get("db"))
	if err != nil {
		writeErr(w, cluster.Errorf(404, "%v", err))
		return
	}
	if entry.coord != nil {
		writeErr(w, cluster.Errorf(404, "server: coordinator catalogs hold no local world table (fetch it from a shard node)"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(store.EncodeWorldTable(entry.snapshot().W))
}

// walSource resolves the catalog of a replication request to its write
// path, which owns the manifest and the live WAL.
func (s *Server) walSource(w http.ResponseWriter, r *http.Request) (*catalogEntry, bool) {
	entry, dbName, err := s.lookup(r.URL.Query().Get("db"))
	if err != nil {
		writeErr(w, cluster.Errorf(404, "%v", err))
		return nil, false
	}
	if entry.mut == nil {
		writeErr(w, cluster.Errorf(http.StatusConflict,
			"server: catalog %q is not a writable primary (replication streams from -rw nodes)", dbName))
		return nil, false
	}
	return entry, true
}

// handleStoreManifest serves the current manifest as EncodeManifest
// writes it. The files it references exist on disk when it is rendered;
// a follower that loses the race against a later compaction's file
// deletion gets a clean 404 from /store/file and simply resyncs.
func (s *Server) handleStoreManifest(w http.ResponseWriter, r *http.Request) {
	if entry, ok := s.walSource(w, r); ok {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(store.EncodeManifest(entry.mut.Manifest()))
	}
}

// handleStoreFile serves one manifest-referenced segment file verbatim.
// Segment files are immutable once written (flush and compaction write
// under fresh generation-unique names), so the bytes served are stable
// for as long as the name is referenced.
func (s *Server) handleStoreFile(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.walSource(w, r)
	if !ok {
		return
	}
	name := r.URL.Query().Get("name")
	if store.CheckFileName(name) != nil {
		writeErr(w, cluster.Errorf(400, "server: bad file name"))
		return
	}
	if !slices.Contains(entry.mut.Manifest().Files(), name) {
		writeErr(w, cluster.Errorf(404,
			"server: %q is not referenced by the current manifest (superseded by a flush or compaction? refetch the manifest)", name))
		return
	}
	b, err := os.ReadFile(filepath.Join(entry.dir, name))
	if err != nil {
		writeErr(w, cluster.Errorf(404, "server: %v (refetch the manifest)", err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(b)
}

// walStreamPoll is how often the long-poll loop re-checks the durable
// WAL frontier while waiting for new commits.
const walStreamPoll = 25 * time.Millisecond

// handleWALStream serves the durable write-ahead-log suffix past the
// follower's offset:
//
//	GET /wal/stream?db=<catalog>&gen=<wal generation>&off=<byte offset>&wait_ms=<long-poll window>
//
// 200 with raw WAL frames [off, durable) — empty when the window
// expires with nothing new; the X-Urel-Wal-Durable header carries the
// primary's durable frontier either way (the replica's lag gauge).
// 410 Gone with X-Urel-Wal-Gen when the log rotated (flush or
// compaction folded it into segment files): the follower must resync
// from the manifest. Only durable bytes are ever served — the frontier
// advances after fsync, so a torn or unacknowledged frame cannot reach
// a replica.
func (s *Server) handleWALStream(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.walSource(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	gen, err := strconv.ParseUint(q.Get("gen"), 10, 64)
	if err != nil {
		writeErr(w, cluster.Errorf(400, "server: bad wal generation"))
		return
	}
	off, err := strconv.ParseInt(q.Get("off"), 10, 64)
	if err != nil || off < int64(store.WALHeaderLen) {
		writeErr(w, cluster.Errorf(400, "server: bad wal offset (min %d)", store.WALHeaderLen))
		return
	}
	waitMS, _ := strconv.Atoi(q.Get("wait_ms"))
	if waitMS < 0 {
		waitMS = 0
	}
	if waitMS > 30000 {
		waitMS = 30000
	}
	deadline := time.Now().Add(time.Duration(waitMS) * time.Millisecond)
	for {
		g, path, durable := entry.mut.WALView()
		if g != gen {
			w.Header().Set("X-Urel-Wal-Gen", strconv.FormatUint(g, 10))
			writeErr(w, cluster.Errorf(http.StatusGone,
				"server: wal generation %d rotated to %d (resync from /store/manifest)", gen, g))
			return
		}
		if off > durable {
			writeErr(w, cluster.Errorf(http.StatusRequestedRangeNotSatisfiable,
				"server: offset %d past the durable frontier %d of generation %d", off, durable, g))
			return
		}
		if durable > off {
			buf := make([]byte, durable-off)
			f, err := os.Open(path)
			if err == nil {
				_, err = f.ReadAt(buf, off)
				f.Close()
			}
			if err != nil {
				// The log likely rotated between WALView and the read;
				// the next iteration observes the new generation and
				// answers 410. A genuine read error lands on 500 once
				// the window runs out.
				if time.Now().Before(deadline) {
					select {
					case <-r.Context().Done():
						return
					case <-s.stop:
						return
					case <-time.After(walStreamPoll):
					}
					continue
				}
				writeErr(w, cluster.Errorf(500, "server: read wal: %v", err))
				return
			}
			w.Header().Set("X-Urel-Wal-Durable", strconv.FormatInt(durable, 10))
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(buf)
			return
		}
		if !time.Now().Before(deadline) {
			w.Header().Set("X-Urel-Wal-Durable", strconv.FormatInt(durable, 10))
			w.WriteHeader(http.StatusOK)
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.stop:
			// Server shutting down: answer the poll empty (the follower
			// retries and finds the node gone) instead of holding Close
			// for the rest of the window.
			w.Header().Set("X-Urel-Wal-Durable", strconv.FormatInt(durable, 10))
			w.WriteHeader(http.StatusOK)
			return
		case <-time.After(walStreamPoll):
		}
	}
}
