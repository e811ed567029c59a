package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"urel/internal/cluster"
	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/server"
	"urel/internal/sqlparse"
	"urel/internal/store"
	"urel/internal/txn"
)

// Probes of the two served workloads: what the server publishes
// (elapsed_ms per response, GET /stats), and a shadow replay of each
// distinct statement through the exported functions the executor
// calls, which says how elapsed_ms divides over the modules.

// stageMS is the shadow replay of one statement: each stage's median
// duration in ms.
type stageMS struct {
	parse, translate, optimize, exec, decode, post, encode float64
	readOnce, confTuples                                   int
}

func (st stageMS) sum() float64 {
	return st.parse + st.translate + st.optimize + st.exec + st.decode + st.post + st.encode
}

// add accumulates w times o's stage durations.
func (st *stageMS) add(o stageMS, w float64) {
	st.parse += w * o.parse
	st.translate += w * o.translate
	st.optimize += w * o.optimize
	st.exec += w * o.exec
	st.decode += w * o.decode
	st.post += w * o.post
	st.encode += w * o.encode
}

// shadowReplay runs sql the way server.executeLocal does, stage by
// stage, reps times, and returns the stage medians.
func shadowReplay(db *core.UDB, sql string, reps int) (stageMS, error) {
	var parse, translate, optimize, exec, decode, post, encode []float64
	var out stageMS
	lap := func(dst *[]float64, t0 *time.Time) {
		now := time.Now()
		*dst = append(*dst, float64(now.Sub(*t0))/1e6)
		*t0 = now
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		st, err := sqlparse.ParseStatement(sql)
		if err != nil {
			return out, err
		}
		lap(&parse, &t0)
		p, ok := st.(*sqlparse.Parsed)
		if !ok {
			return out, fmt.Errorf("shadow replay: %q is not a query", sql)
		}
		var plan engine.Plan
		var lay *core.ULayout
		if p.Mode == sqlparse.ModePossible {
			plan, lay, err = db.Translate(p.Query)
		} else {
			plan, lay, err = db.TranslateFull(p.Query)
		}
		if err != nil {
			return out, err
		}
		lap(&translate, &t0)
		cat := engine.NewCatalog()
		if plan, err = engine.Optimize(plan, cat); err != nil {
			return out, err
		}
		lap(&optimize, &t0)
		it, err := engine.Build(plan, cat, engine.ExecConfig{})
		if err != nil {
			return out, err
		}
		rel, err := engine.Drain(it)
		if err != nil {
			return out, err
		}
		lap(&exec, &t0)
		var rows any = rel.Rows
		if p.Mode != sqlparse.ModePossible {
			res, err := core.Decode(db.W, rel, lay)
			if err != nil {
				return out, err
			}
			lap(&decode, &t0)
			switch p.Mode {
			case sqlparse.ModeCertain:
				norm, err := res.Normalize()
				if err != nil {
					return out, err
				}
				crel, err := norm.CertainTuplesRA()
				if err != nil {
					return out, err
				}
				rows = crel.Rows
			case sqlparse.ModeConf:
				cs, stats, err := res.ConfidencesDispatch(core.ConfOptions{})
				if err != nil {
					return out, err
				}
				out.readOnce, out.confTuples = stats.ReadOnce, len(cs)
				rows = cs
			default:
				rows = res.ConfidenceBounds()
			}
			lap(&post, &t0)
		}
		// The server renders rows as JSON arrays; marshalling the same
		// values stands in for its unexported encoder.
		if _, err := json.Marshal(rows); err != nil {
			return out, err
		}
		lap(&encode, &t0)
	}
	out.parse, out.translate, out.optimize = median(parse), median(translate), median(optimize)
	out.exec, out.decode, out.post, out.encode = median(exec), median(decode), median(post), median(encode)
	return out, nil
}

// servedCommon sets the metrics both served workloads share: what the
// client saw against what the server reported, and the /stats deltas
// of the whole session.
func servedCommon(rec *record, spans []span, clients []*client, url string) (*serverStats, error) {
	// A round trip's self time is what elapsed_ms does not cover.
	var overhead []float64
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Parent < 0 {
			overhead = append(overhead, float64(self[i])/1e6)
		}
	}
	rec.set(perLayer, "server.http_overhead_ms", median(overhead))
	rec.set(perLayer, "server.lat_p99_ms", percentile(flatten(rootMS(spans)), 99))
	var bytes, posts int
	for _, cl := range clients {
		bytes, posts = bytes+cl.bytes, posts+cl.posts
	}
	rec.set(perLayer, "server.resp_kb_per_op", float64(bytes)/1024/float64(posts))
	var st serverStats
	if err := clients[0].getJSON(url+"/stats", &st); err != nil {
		return nil, err
	}
	if n := st.PlanCache.Hits + st.PlanCache.Misses; n > 0 {
		rec.set(perLayer, "server.plan_cache_hit_share", float64(st.PlanCache.Hits)/float64(n))
	}
	if n := st.SegCache.Hits + st.SegCache.Misses; n > 0 {
		rec.set(perLayer, "store.segcache_hit_share", float64(st.SegCache.Hits)/float64(n))
	}
	rec.set(perLayer, "store.segcache_evictions", float64(st.SegCache.Evictions))
	if n := st.Queries + st.Rejected; n > 0 {
		rec.set(perLayer, "server.rejected_share", float64(st.Rejected)/float64(n))
	}
	return &st, nil
}

func (s *servedMixSession) probe(e *env, rec *record, spans []span) error {
	st, err := servedCommon(rec, spans, s.clients, s.node.url)
	if err != nil {
		return err
	}
	elapsed := childMS(spans, layerExec, "elapsed")
	for _, cls := range s.w.spec().classes {
		rec.set(perLayer, "server.elapsed_"+cls.name+"_ms", median(elapsed[cls.name]))
	}
	rec.set(perLayer, "server.query_ms", median(flatten(rootMS(spans))))
	rec.set(perLayer, "index.build_ms", e.stages["index.build"])
	rec.set(perLayer, "store.save_mb_per_s", float64(s.w.fx.stats.SizeBytes)/1e6/(e.stages["store.save"]/1000))
	rec.Notes = map[string]float64{
		"segcache_bytes":     float64(st.SegCache.Bytes),
		"segcache_cap_bytes": 256 << 20,
		"catalog_bytes":      float64(st.Catalogs["tpch"].SizeBytes),
	}

	// Shadow replay over the same directory with a cache of its own,
	// warm after the first repetition like the server's.
	db, err := store.OpenCached(s.dir, store.NewSegCache(256<<20))
	if err != nil {
		return err
	}
	defer db.Close()
	byClass := map[int][]stageMS{}
	replay := func(cls int, sql string) error {
		sm, err := shadowReplay(db, sql, probeReps)
		if err == nil {
			byClass[cls] = append(byClass[cls], sm)
		}
		return err
	}
	for _, m := range s.w.stmts {
		if err := replay(m.class, m.sql); err != nil {
			return err
		}
	}
	for i := 0; i < 4; i++ {
		if err := replay(mixPoint, pointSQL(s.w.fx.keys.key(2000+i))); err != nil {
			return err
		}
	}
	// cycle is what the stages of one cycle's 20 statements add up to
	// (each class's statements averaged, times the class's count),
	// against the elapsed_ms the server reported for the same cycle.
	var cycle stageMS
	var parse, translate, optimize, decode []float64
	post := map[int][]float64{}
	var readOnce, confTuples int
	var elapsedSum float64
	for cls, sms := range byClass {
		c := s.w.spec().classes[cls]
		for _, sm := range sms {
			translate, optimize = append(translate, sm.translate), append(optimize, sm.optimize)
			if cls == mixPoint {
				parse = append(parse, sm.parse)
			} else {
				sm.parse = 0 // a repeated text hits the plan cache: the server does not parse it
			}
			if sm.post > 0 {
				decode, post[cls] = append(decode, sm.decode), append(post[cls], sm.post)
			}
			readOnce, confTuples = readOnce+sm.readOnce, confTuples+sm.confTuples
			cycle.add(sm, float64(c.count)/float64(len(sms)))
		}
		elapsedSum += float64(c.count) * median(elapsed[c.name])
	}
	rec.set(perLayer, "sqlparse.parse_us", 1000*median(parse))
	rec.set(perLayer, "core.translate_us", 1000*median(translate))
	rec.set(perLayer, "engine.optimize_us", 1000*median(optimize))
	rec.set(perLayer, "core.decode_ms", median(decode))
	rec.set(perLayer, "core.certain_ms", median(post[mixCertain]))
	rec.set(perLayer, "core.conf_exact_ms", median(post[mixConf]))
	rec.set(perLayer, "core.conf_bounds_ms", median(post[mixConfBounds]))
	if confTuples > 0 {
		rec.set(perLayer, "core.conf_readonce_share", float64(readOnce)/float64(confTuples))
	}
	rec.set(perLayer, "server.unattributed_ms", (elapsedSum-cycle.sum())/float64(s.w.spec().cycleLen()))
	if elapsedSum > 0 {
		setShares(rec, spans, map[string]float64{
			"core":   (cycle.translate + cycle.decode + cycle.post) / elapsedSum,
			"engine": (cycle.optimize + cycle.exec) / elapsedSum,
			"server": (cycle.parse + cycle.encode) / elapsedSum,
		})
	}

	if err := s.probeTraceOverhead(rec); err != nil {
		return err
	}
	if err := s.probeOpenLoop(rec); err != nil {
		return err
	}
	return probeCluster(e, rec)
}

// probeTraceOverhead runs the cycle with and without "trace": true in
// turn on one connection and compares the cycles' wall times.
func (s *servedMixSession) probeTraceOverhead(rec *record) error {
	cycle := func(trace bool, base int) (float64, error) {
		t0 := time.Now()
		for i := 0; i < len(servedMixCycle); i++ {
			_, sql, _ := s.w.mixOp(0, base+i)
			body := map[string]any{"sql": sql}
			if trace {
				body["trace"] = true
			}
			r, err := s.clients[0].post(s.node.url+"/query", body)
			if err != nil {
				return 0, err
			}
			if r.Status != 200 {
				return 0, fmt.Errorf("%s: status %d: %s", sql, r.Status, r.Error)
			}
		}
		return float64(time.Since(t0)) / 1e6, nil
	}
	var off, on []float64
	pairs := int(rec.Seconds / 2) // 10 at the default 20 s
	if pairs < 2 {
		pairs = 2
	}
	for i := 0; i < pairs; i++ {
		base := 1_000_000 + 2*i*len(servedMixCycle)
		a, err := cycle(false, base)
		if err != nil {
			return err
		}
		b, err := cycle(true, base+len(servedMixCycle))
		if err != nil {
			return err
		}
		off, on = append(off, a), append(on, b)
	}
	rec.set(perLayer, "obs.trace_overhead_pct", (median(on)/median(off)-1)*100)
	return nil
}

// Open-loop probe: requests leave on a schedule whether or not earlier
// ones have returned, and each is timed from when it was due, so a
// stall charges every request queued behind it. Two fixed rates, the
// same on every machine.
const (
	openLoRate  = 40.0  // requests per second
	openHiRate  = 120.0 // requests per second
	openWorkers = 16    // connections the generator may have in flight
)

func (s *servedMixSession) probeOpenLoop(rec *record) error {
	run := func(rate float64) (p95, late float64, err error) {
		// A sixth of the run's seconds at each rate.
		n := int(rate * rec.Seconds / 6)
		if n < openWorkers {
			n = openWorkers
		}
		lat, lateness := make([]float64, n), make([]float64, n)
		errs := make([]error, n)
		// One slot per connection; a request whose turn comes while all
		// are busy waits for one, and that wait is part of its latency.
		slots := make(chan *client, openWorkers)
		for i := 0; i < openWorkers; i++ {
			cl := newClient()
			defer cl.close()
			slots <- cl
		}
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			time.Sleep(time.Until(due))
			cl := <-slots
			lateness[i] = float64(time.Since(due)) / 1e6
			wg.Add(1)
			go func(i int, cl *client) {
				defer wg.Done()
				_, sql, _ := s.w.mixOp(0, 2_000_000+i)
				r, err := cl.post(s.node.url+"/query", map[string]any{"sql": sql})
				if err == nil && r.Status != 200 {
					err = fmt.Errorf("%s: status %d: %s", sql, r.Status, r.Error)
				}
				lat[i], errs[i] = float64(time.Since(due))/1e6, err
				slots <- cl
			}(i, cl)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, 0, err
			}
		}
		return percentile(lat, 95), percentile(lateness, 95), nil
	}
	lo, _, err := run(openLoRate)
	if err != nil {
		return err
	}
	hi, late, err := run(openHiRate)
	if err != nil {
		return err
	}
	rec.set(perLayer, "server.open_lo_p95_ms", lo)
	rec.set(perLayer, "server.open_hi_p95_ms", hi)
	rec.set(perLayer, "server.open_late_ms", late)
	return nil
}

// probeCluster boots two shard servers and a coordinator in process
// over a ShardedSave split of the same data and times one client
// against them: visible, ungated (an earlier gated three-server
// workload disagreed with itself by 10 %).
func probeCluster(e *env, rec *record) error {
	db, _, err := generate(e, e.size.stored, loX, loZ)
	if err != nil {
		return err
	}
	var dirs []string
	var urls []string
	var release []func()
	defer func() {
		for i := len(release) - 1; i >= 0; i-- {
			release[i]()
		}
	}()
	for i := 0; i < 2; i++ {
		dir, err := e.mkdir(fmt.Sprintf("shard%d", i))
		if err != nil {
			return err
		}
		d := dir
		release = append(release, e.cl.push(func() { os.RemoveAll(d) }))
		dirs = append(dirs, dir)
	}
	sharded := []string{indexedRel}
	if err := store.ShardedSave(db, dirs, sharded); err != nil {
		return err
	}
	spec := cluster.CatalogSpec{Sharded: sharded}
	for i, dir := range dirs {
		n, err := startNode(server.Config{Catalogs: map[string]string{"tpch": dir}})
		if err != nil {
			return err
		}
		release = append(release, e.cl.push(n.stop))
		urls = append(urls, n.url)
		spec.Shards = append(spec.Shards, cluster.ShardNodes{Name: fmt.Sprintf("s%d", i), Nodes: []string{n.url}})
	}
	coord, err := startNode(server.Config{Cluster: map[string]cluster.CatalogSpec{"tpch": spec}})
	if err != nil {
		return err
	}
	release = append(release, e.cl.push(coord.stop))
	cl := newClient()
	release = append(release, e.cl.push(cl.close))

	// A point read of a replicated relation relays to one shard; a
	// certain answer over the sharded relation scatters and merges the
	// shards' representations centrally.
	relay := "possible select o_totalprice from orders where o_orderkey = 77"
	scatter := "certain select l_quantity from lineitem where l_orderkey < 40"
	post := func(url, sql string, extra map[string]any) func() error {
		return func() error {
			body := map[string]any{"sql": sql}
			for k, v := range extra {
				body[k] = v
			}
			r, err := cl.post(url+"/query", body)
			if err == nil && r.Status != 200 {
				err = fmt.Errorf("%s: status %d: %s", sql, r.Status, r.Error)
			}
			return err
		}
	}
	const reps = 15
	viaCoord, err := timeMS(reps, post(coord.url, relay, nil))
	if err != nil {
		return err
	}
	direct, err := timeMS(reps, post(urls[0], relay, nil))
	if err != nil {
		return err
	}
	scatterMS, err := timeMS(reps, post(coord.url, scatter, nil))
	if err != nil {
		return err
	}
	rec.set(perLayer, "cluster.relay_point_ms", viaCoord)
	rec.set(perLayer, "cluster.hop_overhead_ms", viaCoord-direct)
	rec.set(perLayer, "cluster.scatter_certain_ms", scatterMS)

	// The gather format: bytes on the wire for the scatter statement,
	// and what encoding and decoding it cost.
	before := cl.bytes
	for _, u := range urls {
		if err := post(u, scatter, map[string]any{"wire": "repr"})(); err != nil {
			return err
		}
	}
	rec.set(perLayer, "cluster.repr_kb_per_op", float64(cl.bytes-before)/1024)
	p, err := sqlparse.Parse(scatter)
	if err != nil {
		return err
	}
	res, err := db.Eval(p.Query, engine.ExecConfig{})
	if err != nil {
		return err
	}
	var wire []byte
	enc, err := timeMS(reps, func() (err error) {
		wire, err = json.Marshal(cluster.EncodeRepr(res))
		return err
	})
	if err != nil {
		return err
	}
	dec, err := timeMS(reps, func() error {
		var rep cluster.Repr
		return json.Unmarshal(wire, &rep)
	})
	if err != nil {
		return err
	}
	rec.set(perLayer, "cluster.encode_repr_us", 1000*enc)
	rec.set(perLayer, "cluster.decode_repr_us", 1000*dec)
	return nil
}

func (s *servedRWSession) probe(e *env, rec *record, spans []span) error {
	st, err := servedCommon(rec, spans, s.clients, s.node.url)
	if err != nil {
		return err
	}
	roots := rootMS(spans)
	rec.set(perLayer, "server.query_ms", median(rwSteps(roots, "/query")))
	rec.set(perLayer, "server.exec_ms", median(rwSteps(roots, "/exec")))
	rec.Notes = map[string]float64{"write_share_of_client_time_pct": 100 * sumMS(rwSteps(roots, "/exec")) / sumMS(flatten(roots))}
	for _, name := range rwStepNames {
		rec.Notes["p50_us_"+name] = 1000 * median(roots[name])
	}
	rec.set(perLayer, "index.build_ms", e.stages["index.build"])
	wr := st.Catalogs["tpch"].Write
	if wr == nil {
		return fmt.Errorf("catalog is not writable")
	}
	rec.set(perLayer, "txn.flushes", float64(wr.Flushes))
	rec.set(perLayer, "txn.compactions", float64(wr.Compactions))

	// The write path alone, on a directory of its own (the server holds
	// the lock on the live one): one client's script through txn.DB
	// directly, maintenance by explicit calls.
	dir, rm, err := storedDir(e, "txnprobe", nil)
	if err != nil {
		return err
	}
	defer rm()
	db, err := txn.Open(dir, txn.Options{DisableAutoFlush: true})
	if err != nil {
		return err
	}
	closeDB := e.cl.push(func() { db.Close() })
	defer closeDB()

	const probeClient, cycles = 0, 24 // its own directory, so client 0's keys are free
	var insert, update, del []float64
	var reads stageMS // the reads' stages, summed
	var userBytes float64
	walStart := db.Stats().WALBytes
	for seq := 0; seq < cycles*rwScript; seq++ {
		op := s.w.rwStep(probeClient, seq, 0)
		t0 := time.Now()
		if op.path == "/exec" {
			if _, err := db.Exec(op.sql); err != nil {
				return fmt.Errorf("%s: %w", op.sql, err)
			}
			ms := float64(time.Since(t0)) / 1e6
			// User bytes: eight per value written.
			switch rwStepNames[seq%rwScript] {
			case "insert":
				insert = append(insert, ms)
				userBytes += 8 * 4 * rwRows
			case "update":
				update = append(update, ms)
				userBytes += 8 * rwRows / 2
			default:
				del = append(del, ms)
			}
			continue
		}
		sm, err := shadowReplay(db.Snapshot(), op.sql, 1)
		if err != nil {
			return fmt.Errorf("%s: %w", op.sql, err)
		}
		reads.add(sm, 1)
	}
	rec.set(perLayer, "txn.insert_ms", median(insert))
	rec.set(perLayer, "txn.update_ms", median(update))
	rec.set(perLayer, "txn.delete_ms", median(del))
	rec.set(perLayer, "txn.wal_bytes_per_user_byte", float64(db.Stats().WALBytes-walStart)/userBytes)

	// The same range read with its rows in the memtable, then after a
	// flush has moved them to a delta file.
	rangeRead := s.w.rwStep(probeClient, (cycles-1)*rwScript+3, 0).sql
	readMS := func() (float64, error) {
		return timeMS(probeReps, func() error {
			_, err := expectedSQL(db.Snapshot(), rangeRead)
			return err
		})
	}
	overlay, err := readMS()
	if err != nil {
		return err
	}
	flushMS, err := timeMS(1, db.Flush)
	if err != nil {
		return err
	}
	flushed, err := readMS()
	if err != nil {
		return err
	}
	compactMS, err := timeMS(1, db.Compact)
	if err != nil {
		return err
	}
	rec.set(perLayer, "txn.read_overlay_ratio", overlay/flushed)
	rec.set(perLayer, "txn.flush_ms", flushMS)
	rec.set(perLayer, "txn.compact_ms", compactMS)

	// Reopen with commits in the log only: what replay costs.
	for seq := cycles * rwScript; seq < (cycles+4)*rwScript; seq++ {
		if op := s.w.rwStep(probeClient, seq, 0); op.path == "/exec" {
			if _, err := db.Exec(op.sql); err != nil {
				return fmt.Errorf("%s: %w", op.sql, err)
			}
		}
	}
	closeDB()
	reopen, err := timeMS(1, func() error {
		db2, err := txn.Open(dir, txn.Options{DisableAutoFlush: true})
		if err != nil {
			return err
		}
		return db2.Close()
	})
	if err != nil {
		return err
	}
	rec.set(perLayer, "txn.reopen_replay_ms", reopen)

	// Shares: /exec's elapsed is all the write path's; /query's divides
	// as the shadow replay of the reads did.
	elapsed := childMS(spans, layerExec, "elapsed")
	execMS, queryMS := sumMS(rwSteps(elapsed, "/exec")), sumMS(rwSteps(elapsed, "/query"))
	if total := execMS + queryMS; total > 0 && reads.sum() > 0 {
		q := queryMS / total / reads.sum()
		setShares(rec, spans, map[string]float64{
			"txn":    execMS / total,
			"core":   q * (reads.translate + reads.decode + reads.post),
			"engine": q * (reads.optimize + reads.exec),
			"server": q * (reads.parse + reads.encode),
		})
	}
	return nil
}

// rwSteps pools the durations of the script's steps that go to path:
// the writes for /exec, the reads for /query.
func rwSteps(byStep map[string][]float64, path string) []float64 {
	steps := []string{"point", "range", "certain"}
	if path == "/exec" {
		steps = []string{"insert", "update", "delete"}
	}
	var out []float64
	for _, name := range steps {
		out = append(out, byStep[name]...)
	}
	return out
}

func sumMS(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
