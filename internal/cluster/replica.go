package cluster

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"urel/internal/core"
	"urel/internal/obs"
	"urel/internal/store"
	"urel/internal/ws"
)

// ReplicaOptions tunes a WAL-shipping follower.
type ReplicaOptions struct {
	// Cache is the shared segment cache for opened part files.
	Cache *store.SegCache
	// HTTPClient overrides the transport (tests). nil uses a client
	// without a timeout — /wal/stream long-polls, so a transport-level
	// deadline would turn idle periods into errors.
	HTTPClient *http.Client
	// Registry receives urel_replica_* metrics for this catalog; nil
	// disables them.
	Registry *obs.Registry
	// Catalog is the metric label; defaults to the upstream db name.
	Catalog string
	// Backoff is the delay after the first failed poll before
	// reconnecting; consecutive failures double it (with ±20% jitter so
	// a fleet of replicas does not hammer a recovering primary in
	// lockstep) up to MaxBackoff. Default 500ms.
	Backoff time.Duration
	// MaxBackoff caps the reconnect backoff. Default 10s.
	MaxBackoff time.Duration
	// WaitMS is the long-poll window requested from the primary.
	// Default 10000.
	WaitMS int
	// PromoteAfter enables automatic promotion: when the primary has
	// been unreachable for this long (a WAL-stream lease timeout — any
	// successful poll, even an idle one, renews the lease), the replica
	// fences the catalog by bumping the manifest's fencing epoch and
	// detaches. 0 disables (default).
	PromoteAfter time.Duration
	// OnPromote is called once, after a successful promotion, from the
	// streaming goroutine. The server uses it to reopen the directory
	// read-write and start serving writes.
	OnPromote func()
}

// ReplicaStats is a point-in-time snapshot of replication progress.
type ReplicaStats struct {
	Upstream string `json:"upstream"`
	// Epoch is the replica's own MVCC epoch (counts local publishes,
	// not the primary's commit numbering).
	Epoch uint64 `json:"epoch"`
	// Gen is the WAL generation currently streamed (the primary's
	// manifest epoch at the replica's last sync point).
	Gen uint64 `json:"gen"`
	// WALOff is how far into that generation's log the replica has
	// durably applied, in bytes.
	WALOff int64 `json:"wal_off"`
	// LagBytes is the primary's durable WAL size minus WALOff at the
	// last poll: 0 means caught up.
	LagBytes int64 `json:"lag_bytes"`
	// Resyncs counts full manifest re-synchronizations (bootstrap and
	// every WAL rotation observed).
	Resyncs uint64 `json:"resyncs"`
	// Reconnects counts WAL-stream reconnect attempts after failed
	// polls.
	Reconnects uint64 `json:"reconnects"`
	// Promoted reports that this replica fenced the catalog and
	// detached from its upstream (see ReplicaOptions.PromoteAfter).
	Promoted bool `json:"promoted,omitempty"`
	// LastErr is the most recent streaming error, cleared on the next
	// successful poll.
	LastErr string `json:"last_err,omitempty"`
}

// Replica is a read-only follower of a primary catalog, kept current by
// shipping the primary's write-ahead log (GET /wal/stream) and applying
// the frames through the same replay path crash recovery uses. The
// replica directory is a physical clone: segment files and worlds.bin
// are fetched by name, the WAL frames are re-appended to a local log of
// the same generation, and the manifest commits by atomic rename — so
// the directory is crash-consistent at every instant and promotion is
// simply reopening it read-write (urserved -rw) after pointing clients
// at it.
type Replica struct {
	dir      string
	upstream string
	db       string
	opts     ReplicaOptions
	hc       *http.Client

	mu     sync.Mutex // guards man, layers, mem, wal, retired, closed
	man    *store.Manifest
	w      *ws.WorldTable
	layers map[repPartKey][]*store.PartHandle
	mem    map[repPartKey]*store.PartDelta
	wal    *store.WAL
	// retired holds part handles replaced by a resync; published
	// snapshots may still reference them, so they close only with the
	// replica.
	retired []*store.PartHandle
	closed  bool

	state      atomic.Pointer[repState]
	lag        atomic.Int64
	resyncs    atomic.Uint64
	reconnects atomic.Uint64
	promoted   atomic.Bool
	lastErr    atomic.Pointer[string]
	reconnCtr  *obs.Counter

	// ctx cancels in-flight upstream requests on Close — without it, an
	// idle long-poll would hold Close (and the primary's handler) for
	// the full wait window.
	ctx    context.Context
	cancel context.CancelFunc
	quit   chan struct{}
	done   chan struct{}
}

type repPartKey struct {
	rel  string
	part int
}

type repState struct {
	epoch uint64
	gen   uint64
	off   int64
	udb   *core.UDB
}

// OpenReplica opens (or bootstraps) dir as a follower of the catalog
// named db on the upstream node. If dir already holds a catalog — a
// previous follower session, or a seed copied from a backup — it is
// reopened and streaming resumes from its local WAL position; otherwise
// the primary's manifest, segment files, and world table are fetched
// first (the initial sync blocks until the replica can serve reads).
// The background apply loop runs until Close.
func OpenReplica(dir, upstream, db string, opts ReplicaOptions) (*Replica, error) {
	if opts.Backoff <= 0 {
		opts.Backoff = 500 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 10 * time.Second
	}
	if opts.WaitMS <= 0 {
		opts.WaitMS = 10000
	}
	r := &Replica{
		dir:      dir,
		upstream: upstream,
		db:       db,
		opts:     opts,
		hc:       opts.HTTPClient,
		layers:   map[repPartKey][]*store.PartHandle{},
		mem:      map[repPartKey]*store.PartDelta{},
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	if r.hc == nil {
		r.hc = &http.Client{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: replica %s: %w", dir, err)
	}
	var err error
	if _, serr := os.Stat(filepath.Join(dir, store.CatalogName)); serr == nil {
		err = r.openLocal()
	} else {
		err = r.resync()
	}
	if err != nil {
		r.closeHandles()
		return nil, fmt.Errorf("cluster: replica %s: %w", dir, err)
	}
	r.publish()
	if reg := opts.Registry; reg != nil {
		cat := opts.Catalog
		if cat == "" {
			cat = db
		}
		lbl, val := []string{"catalog"}, []string{cat}
		reg.GaugeFuncWith("urel_replica_wal_lag_bytes",
			"Durable WAL bytes on the primary not yet applied by this replica.",
			lbl, val, func() float64 { return float64(r.lag.Load()) })
		reg.GaugeFuncWith("urel_replica_epoch",
			"The replica's local MVCC epoch (one per applied publish).",
			lbl, val, func() float64 { return float64(r.Stats().Epoch) })
		reg.GaugeFuncWith("urel_replica_resyncs_total",
			"Full manifest re-synchronizations (bootstrap and WAL rotations).",
			lbl, val, func() float64 { return float64(r.resyncs.Load()) })
		r.reconnCtr = reg.CounterWith("urel_replica_reconnects_total",
			"WAL-stream reconnect attempts after failed polls.", lbl, val...)
	}
	go r.loop()
	return r, nil
}

// Snapshot returns the replica's current MVCC snapshot. Like the
// primary's, it stays consistent while streaming continues.
func (r *Replica) Snapshot() *core.UDB { return r.state.Load().udb }

// Stats reports replication progress.
func (r *Replica) Stats() ReplicaStats {
	st := r.state.Load()
	out := ReplicaStats{
		Upstream:   r.upstream,
		Epoch:      st.epoch,
		Gen:        st.gen,
		WALOff:     st.off,
		LagBytes:   r.lag.Load(),
		Resyncs:    r.resyncs.Load(),
		Reconnects: r.reconnects.Load(),
		Promoted:   r.promoted.Load(),
	}
	if e := r.lastErr.Load(); e != nil {
		out.LastErr = *e
	}
	return out
}

// Fences returns the replica's manifest fencing epochs: its own
// authority epoch (the primary's, shipped with the manifest) and the
// highest foreign epoch witnessed. GET /fence serves these so a
// topology reload learns a promotion from any surviving node.
func (r *Replica) Fences() (own, fencedBy uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.man == nil {
		return 0, 0
	}
	return r.man.Fence, r.man.FencedBy
}

// Close stops the apply loop and releases every file handle, including
// handles retired by resyncs that published snapshots may reference.
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	close(r.quit)
	r.cancel()
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closeHandles()
	return nil
}

func (r *Replica) closeHandles() {
	for _, ls := range r.layers {
		for _, h := range ls {
			h.Close()
		}
	}
	r.layers = map[repPartKey][]*store.PartHandle{}
	for _, h := range r.retired {
		h.Close()
	}
	r.retired = nil
	if r.wal != nil {
		r.wal.Close()
		r.wal = nil
	}
}

// openLocal resumes from an existing replica directory: open the
// manifest's layers, replay the local WAL's intact prefix into
// memtables (exactly crash recovery), and stream onward from its end.
func (r *Replica) openLocal() error {
	man, err := store.ReadManifest(r.dir)
	if err != nil {
		return err
	}
	wait := store.OpenLayers(r.dir, man, r.opts.Cache)
	w, err := store.ReadWorldTable(r.dir)
	srcs, lerr := wait()
	for ri, ps := range srcs { // closed by closeHandles if this fails
		for pi, src := range ps {
			r.layers[repPartKey{man.Relations[ri].Name, pi}] = src.Layers
		}
	}
	if err != nil {
		return err
	}
	if lerr != nil {
		return lerr
	}
	if man.WAL == "" {
		return fmt.Errorf("catalog has no WAL (not a mutable-format snapshot)")
	}
	wal, records, err := store.OpenWAL(filepath.Join(r.dir, man.WAL))
	if err != nil {
		return err
	}
	r.wal = wal
	for _, rec := range records {
		ops, err := store.DecodeWALRecord(rec)
		if err != nil {
			return fmt.Errorf("%s: %w", man.WAL, err)
		}
		if err := r.applyOps(man, ops); err != nil {
			return err
		}
	}
	r.man = man
	r.w = w
	return nil
}

func (r *Replica) get(path string, q url.Values) (*http.Response, error) {
	u := r.upstream + path + "?" + q.Encode()
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	return r.hc.Do(req)
}

func (r *Replica) fetch(path string, q url.Values) ([]byte, error) {
	resp, err := r.get(path, q)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, firstLine(b))
	}
	return b, nil
}

func firstLine(b []byte) string {
	s := string(b)
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// resync brings the replica to the primary's current manifest
// generation: fetch the manifest, download every referenced segment
// file not already present (file names are generation-unique and their
// content immutable once written, so presence implies currency), fetch
// worlds.bin on first sync — each landed synced, by store.InstallFile —
// start a fresh local WAL for the new generation, and commit by manifest
// rename: the same write-files-then-rename discipline every state
// transition in the store uses.
func (r *Replica) resync() error {
	q := url.Values{"db": {r.db}}
	rawMan, err := r.fetch("/store/manifest", q)
	if err != nil {
		return err
	}
	man, err := store.ParseManifest(rawMan)
	if err != nil {
		return err
	}
	if man.WAL == "" {
		return fmt.Errorf("primary catalog %q is not writable (no WAL to stream)", r.db)
	}
	if r.w == nil {
		wb, err := r.fetch("/worlds", q)
		if err != nil {
			return err
		}
		w, err := store.DecodeWorldTable(wb)
		if err != nil {
			return err
		}
		if err := store.InstallFile(filepath.Join(r.dir, store.WorldsName), wb); err != nil {
			return err
		}
		r.w = w
	}

	// Download missing segment files, then swap the layer sets. Handles
	// for files that carry over are reused; replaced ones are retired,
	// not closed — a published snapshot may still be reading them.
	byFile := map[string]*store.PartHandle{}
	for _, ls := range r.layers {
		for _, h := range ls {
			byFile[filepath.Base(h.Path())] = h
		}
	}
	newLayers := map[repPartKey][]*store.PartHandle{}
	opened := []*store.PartHandle{}
	fail := func(err error) error {
		for _, h := range opened {
			h.Close()
		}
		return err
	}
	for _, mr := range man.Relations {
		for pi, mp := range mr.Parts {
			files := []string{mp.File}
			for _, d := range mp.Deltas {
				files = append(files, d.File)
			}
			var ls []*store.PartHandle
			for _, f := range files {
				if h := byFile[f]; h != nil {
					ls = append(ls, h)
					delete(byFile, f)
					continue
				}
				local := filepath.Join(r.dir, f)
				if _, serr := os.Stat(local); serr != nil {
					b, err := r.fetch("/store/file", url.Values{"db": {r.db}, "name": {f}})
					if err != nil {
						return fail(err)
					}
					if err := store.InstallFile(local, b); err != nil {
						return fail(err)
					}
				}
				h, err := store.OpenPart(local)
				if err != nil {
					return fail(err)
				}
				h.SetCache(r.opts.Cache)
				opened = append(opened, h)
				ls = append(ls, h)
			}
			newLayers[repPartKey{mr.Name, pi}] = ls
		}
	}
	// Whatever remains in byFile was superseded by this generation.
	for _, h := range byFile {
		r.retired = append(r.retired, h)
	}

	oldWAL := ""
	if r.man != nil {
		oldWAL = r.man.WAL
	}
	if r.wal != nil {
		r.wal.Close()
		r.wal = nil
	}
	wal, err := store.CreateWAL(filepath.Join(r.dir, man.WAL))
	if err != nil {
		return fail(err)
	}
	if err := store.WriteManifest(r.dir, man); err != nil {
		wal.Close()
		return fail(err)
	}
	if oldWAL != "" && oldWAL != man.WAL {
		os.Remove(filepath.Join(r.dir, oldWAL))
	}
	r.wal = wal
	r.man = man
	r.layers = newLayers
	r.mem = map[repPartKey]*store.PartDelta{}
	r.resyncs.Add(1)
	return nil
}

func (r *Replica) applyOps(man *store.Manifest, ops []store.WALOp) error {
	for _, o := range ops {
		if o.ClearsExistence {
			if err := man.ClearExistence(o.Rel); err != nil {
				return err
			}
			continue
		}
		pk := repPartKey{o.Rel, o.Part}
		if _, ok := r.layers[pk]; !ok {
			return fmt.Errorf("wal op targets unknown partition %s/%d", o.Rel, o.Part)
		}
		mp := r.mem[pk]
		if mp == nil {
			mp = &store.PartDelta{}
			r.mem[pk] = mp
		}
		mp.ApplyOp(o)
	}
	return nil
}

// publish builds and publishes the next snapshot — the mirror of the
// primary's commit publication, fed by replayed frames instead of
// statements.
func (r *Replica) publish() {
	var epoch uint64
	if st := r.state.Load(); st != nil {
		epoch = st.epoch
	}
	udb := core.NewUDB()
	udb.W = r.w
	for _, mr := range r.man.Relations {
		udb.MustAddRelation(mr.Name, mr.Attrs...)
		udb.Rels[mr.Name].ExistenceComplete = mr.ExistenceComplete
		for pi, mp := range mr.Parts {
			u := udb.MustAddPartition(mr.Name, mp.Name, mp.Attrs...)
			pk := repPartKey{mr.Name, pi}
			ls := r.layers[pk]
			src := &store.PartSource{Layers: ls[:len(ls):len(ls)]}
			if m := r.mem[pk]; m != nil {
				m.Freeze(src)
			}
			u.Back = src
		}
	}
	r.state.Store(&repState{epoch: epoch + 1, gen: r.man.Epoch, off: r.wal.Size(), udb: udb})
}

// loop is the follower's apply loop: long-poll the primary for durable
// WAL bytes past our offset, append them to the local log, replay them,
// publish; on 410 Gone (the primary rotated the log in a flush or
// compaction) resync to the new manifest generation first. Failed
// polls reconnect under exponential backoff with jitter; when
// PromoteAfter is set and the primary stays unreachable past it, the
// replica promotes itself (see promote) and the loop ends.
func (r *Replica) loop() {
	defer close(r.done)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	backoff := r.opts.Backoff
	lastContact := time.Now() // bootstrap/openLocal just succeeded
	for {
		select {
		case <-r.quit:
			return
		default:
		}
		err := r.poll()
		if err == nil {
			r.lastErr.Store(nil)
			backoff = r.opts.Backoff
			lastContact = time.Now()
			continue
		}
		msg := err.Error()
		r.lastErr.Store(&msg)
		if r.opts.PromoteAfter > 0 && time.Since(lastContact) >= r.opts.PromoteAfter {
			if r.promote() {
				return
			}
		}
		r.reconnects.Add(1)
		if r.reconnCtr != nil {
			r.reconnCtr.Inc()
		}
		jittered := time.Duration(float64(backoff) * (0.8 + 0.4*rng.Float64()))
		select {
		case <-r.quit:
			return
		case <-time.After(jittered):
		}
		if backoff *= 2; backoff > r.opts.MaxBackoff {
			backoff = r.opts.MaxBackoff
		}
	}
}

// promote fences the catalog and detaches from the dead upstream: the
// manifest's fencing epoch is bumped past every epoch this replica has
// seen and committed by atomic rename, so a resurrected old primary —
// whose epoch is now lower — refuses coordinated writes the moment it
// sees ours (txn.CheckFence), and cannot be confused with the new
// authority. The local WAL handle is closed so OnPromote can reopen
// the directory read-write (txn.Open adopts the log); already-
// published read snapshots stay valid. Returns false if fencing could
// not be committed (the loop keeps retrying the stream).
func (r *Replica) promote() bool {
	r.mu.Lock()
	if r.closed || r.promoted.Load() {
		r.mu.Unlock()
		return true
	}
	man := r.man.Clone()
	if man.FencedBy > man.Fence {
		man.Fence = man.FencedBy // never promote below a witnessed epoch
	}
	man.Fence++
	if err := store.WriteManifest(r.dir, man); err != nil {
		msg := fmt.Sprintf("promote: %v", err)
		r.lastErr.Store(&msg)
		r.mu.Unlock()
		return false
	}
	r.man = man
	r.promoted.Store(true)
	if r.wal != nil {
		r.wal.Close()
		r.wal = nil
	}
	cb := r.opts.OnPromote
	r.mu.Unlock()
	if cb != nil {
		cb()
	}
	return true
}

var errRotated = fmt.Errorf("wal rotated")

func (r *Replica) poll() error {
	st := r.state.Load()
	q := url.Values{
		"db":      {r.db},
		"gen":     {strconv.FormatUint(st.gen, 10)},
		"off":     {strconv.FormatInt(st.off, 10)},
		"wait_ms": {strconv.Itoa(r.opts.WaitMS)},
	}
	resp, err := r.get("/wal/stream", q)
	if err != nil {
		return err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return rerr
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.closed {
			return nil
		}
		if err := r.resync(); err != nil {
			return fmt.Errorf("resync after rotation: %w", err)
		}
		r.publish()
		return nil
	default:
		return fmt.Errorf("/wal/stream: status %d: %s", resp.StatusCode, firstLine(body))
	}
	if durable, err := strconv.ParseInt(resp.Header.Get("X-Urel-Wal-Durable"), 10, 64); err == nil {
		r.lag.Store(durable - st.off - int64(len(body)))
	}
	if len(body) == 0 {
		return nil // idle long-poll window; already caught up
	}
	records, _, perr := store.ParseWALChunk(body)
	if perr != nil {
		return fmt.Errorf("/wal/stream: %w", perr)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	for _, rec := range records {
		ops, derr := store.DecodeWALRecord(rec)
		if derr != nil {
			return derr
		}
		// Durability before visibility, exactly like the primary: the
		// frame lands in the local log (fsync inside Append) before its
		// effects publish, so a crashed replica replays it on reopen.
		if aerr := r.wal.Append(rec); aerr != nil {
			return aerr
		}
		if aerr := r.applyOps(r.man, ops); aerr != nil {
			return aerr
		}
	}
	r.publish()
	return nil
}
