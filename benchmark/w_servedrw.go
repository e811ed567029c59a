package main

import (
	"fmt"
	"net/http"
	"strings"

	"urel/internal/core"
	"urel/internal/server"
	"urel/internal/tpch"
)

// servedRW puts writes beside reads: a writable server over its own
// copy of the stored directory and a closed-loop client running a
// script that alternates /exec (insert, update, delete — one WAL
// fsync each) with /query (a point read of a key just written, a range
// read over memtable and base, the certain answers among the rows just
// written). A client writes only keys of its own, so a model of
// arithmetic alone knows every expected answer.
type servedRW struct {
	base []answer // per client: expected base rows of its range read
}

var servedRWSpec = findWorkload("served_rw")

func (w *servedRW) spec() *workloadSpec { return servedRWSpec }

const (
	// rwFlushBytes is the memtable size that triggers a background
	// flush. The default (4 MiB) would never be reached by a run; this
	// one is, several times. The policy is the same on every commit
	// measured, because the benchmark sets it.
	rwFlushBytes = 12 << 10
	// rwRows is the number of rows one INSERT writes and one DELETE
	// removes; an UPDATE rewrites the first half of them.
	rwRows = 64
	// rwLag is how many cycles a client's rows live before its DELETE
	// removes them: long enough that most have left the memtable for a
	// delta file by then, so deletes leave tombstones for compaction.
	rwLag = 4
	// rwScript is the length of one client's cycle.
	rwScript = 8
	// rwKeyBase separates the clients' key ranges from the data's part
	// keys and from each other.
	rwKeyBase = 10_000_000
)

func rwPrice(key int64) float64   { return float64(1000+key%9973) + 0.5 }
func rwUpdated(cycle int) float64 { return float64(500000 + cycle) }

// rwBaseRange is the window of five part keys (four suppliers each) of
// the saved data that client c's range read also covers.
func rwBaseRange(c int) (lo, hi int64) { return int64(10*(c+1) + 1), int64(10*(c+1) + 5) }

// rwKey is the first key of client c's cycle i.
func rwKey(c, cycle int) int64 { return int64(rwKeyBase*(c+1) + rwRows*cycle) }

type servedRWSession struct {
	*served
	w     *servedRW
	first []int // per client: the first cycle this session ran, -1 before
}

func (w *servedRW) setUp(e *env) (session, error) {
	var once func(*core.UDB, tpch.Stats) error
	if w.base == nil {
		once = func(db *core.UDB, st tpch.Stats) (err error) {
			for c := 0; c < w.spec().clients; c++ {
				lo, hi := rwBaseRange(c)
				a, err := expectedSQL(db, fmt.Sprintf(
					"possible select ps_partkey, ps_supplycost from partsupp where ps_partkey between %d and %d", lo, hi))
				if err != nil {
					return err
				}
				w.base = append(w.base, a)
			}
			return nil
		}
	}
	dir, rm, err := storedDir(e, "rw", once)
	if err != nil {
		return nil, err
	}
	sv, err := startServed(e, server.Config{
		Catalogs:   map[string]string{"tpch": dir},
		Writable:   true,
		FlushBytes: rwFlushBytes,
	}, dir, rm, w.spec().clients)
	if err != nil {
		return nil, err
	}
	s := &servedRWSession{served: sv, w: w}
	for range sv.clients {
		s.first = append(s.first, -1)
	}
	return s, nil
}

// rwOp is one step of a client's script: the endpoint, the statement,
// and what must come back — tuples affected for a write, an answer for
// a read.
type rwOp struct {
	path   string
	sql    string
	tuples int
	want   answer
}

// rwStepNames names the steps of the script: three writes, each
// followed by a read, then a second point and range read. The doubled
// reads put the median inside the range class and not on the step
// between two classes.
var rwStepNames = [rwScript]string{"insert", "point", "update", "range", "delete", "certain", "point", "range"}

// rwStepClass maps a step to its cost class in the spec: insert,
// point, range, and the dear three (update, delete, certain).
var rwStepClass = [rwScript]int{0, 1, 3, 2, 3, 3, 1, 2}

// rwRow is the canonical (key, cost) row of client c's cycle j, r rows
// in, once the cycle's UPDATE has rewritten the first half.
func rwRow(c, j int, r int64) string {
	key, price := rwKey(c, j)+r, rwUpdated(j)
	if r >= rwRows/2 {
		price = rwPrice(key)
	}
	return canonNumber(float64(key)) + "\x1f" + canonNumber(price)
}

// rwStep computes step seq of client c. first is the first cycle the
// session ran for that client: rows of earlier cycles belong to a
// torn-down copy of the directory and do not exist here.
func (w *servedRW) rwStep(c, seq, first int) rwOp {
	cycle, k := seq/rwScript, rwKey(c, seq/rwScript)
	old := rwKey(c, cycle-rwLag)
	switch rwStepNames[seq%rwScript] {
	case "insert":
		var b strings.Builder
		b.WriteString("insert into partsupp (ps_partkey, ps_suppkey, ps_availqty, ps_supplycost) values ")
		for r := int64(0); r < rwRows; r++ {
			if r > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d, %.1f)", k+r, 1+(k+r)%7, 1+(k+r)%9999, rwPrice(k+r))
		}
		return rwOp{path: "/exec", sql: b.String(), tuples: rwRows}
	case "point":
		// A key of the half the UPDATE leaves alone; the second point
		// read of the cycle takes another.
		key := k + rwRows/2 + int64(seq%rwScript)
		var want answer
		want.add(canonNumber(rwPrice(key)))
		return rwOp{path: "/query", want: want,
			sql: fmt.Sprintf("possible select ps_supplycost from partsupp where ps_partkey = %d", key)}
	case "update":
		return rwOp{path: "/exec", tuples: rwRows / 2,
			sql: fmt.Sprintf("update partsupp set ps_supplycost = %.1f where ps_partkey between %d and %d", rwUpdated(cycle), k, k+rwRows/2-1)}
	case "range":
		// Base rows plus the rows of this client's last three cycles
		// (all live: rwLag is longer).
		want := w.base[c]
		from := cycle - 2
		if from < first {
			from = first
		}
		for j := from; j <= cycle; j++ {
			for r := int64(0); r < rwRows; r++ {
				want.add(rwRow(c, j, r))
			}
		}
		lo, hi := rwBaseRange(c)
		return rwOp{path: "/query", want: want, sql: fmt.Sprintf(
			"possible select ps_partkey, ps_supplycost from partsupp where (ps_partkey between %d and %d) or (ps_partkey between %d and %d)",
			lo, hi, rwKey(c, from), k+rwRows-1)}
	case "delete":
		op := rwOp{path: "/exec", tuples: rwRows,
			sql: fmt.Sprintf("delete from partsupp where ps_partkey between %d and %d", old, old+rwRows-1)}
		if cycle-rwLag < first {
			op.tuples = 0
		}
		return op
	default:
		// The certain answers among this cycle's rows: all of them, since
		// what the client writes is certain. The tuple-level translation
		// merges all of partsupp's partitions before it selects, so this
		// is the dearest read; asked of a range of the saved data its
		// cost follows the few uncertain fields in range and was the
		// workload's seed noise (14 000 to 20 000 allocations), asked of
		// the client's own rows it is nearly the same work on every seed.
		var want answer
		for r := int64(0); r < rwRows; r++ {
			want.add(rwRow(c, cycle, r))
		}
		return rwOp{path: "/query", want: want, sql: fmt.Sprintf(
			"certain select ps_partkey, ps_supplycost from partsupp where ps_partkey between %d and %d", k, k+rwRows-1)}
	}
}

func (s *servedRWSession) do(c, seq int, tr *tracer) opResult {
	if s.first[c] < 0 {
		s.first[c] = seq / rwScript
	}
	op := s.w.rwStep(c, seq, s.first[c])
	r, err := s.clients[c].tracedPost(tr, rwStepNames[seq%rwScript], s.node.url+op.path, map[string]any{"sql": op.sql})
	cls := rwStepClass[seq%rwScript]
	if op.path == "/query" {
		return checkReply(cls, r, err, op.want, op.sql)
	}
	switch {
	case err != nil:
		return opResult{class: cls, msg: fmt.Sprintf("%s: %v", op.sql, err)}
	case r.Status != http.StatusOK:
		return opResult{class: cls, msg: fmt.Sprintf("%s: status %d: %s", op.sql, r.Status, r.Error)}
	case r.Tuples != op.tuples:
		return opResult{class: cls, msg: fmt.Sprintf("%s: affected %d tuples, want %d", op.sql, r.Tuples, op.tuples)}
	}
	return opResult{class: cls, ok: true}
}

// notes reads the write path's counters from GET /stats: a run that
// saw fewer than a few flushes and compactions measured a fresh store,
// not a steady one.
func (s *servedRWSession) notes() (map[string]float64, error) {
	var st serverStats
	if err := s.clients[0].getJSON(s.node.url+"/stats", &st); err != nil {
		return nil, err
	}
	wr := st.Catalogs["tpch"].Write
	if wr == nil {
		return nil, fmt.Errorf("catalog is not writable")
	}
	return map[string]float64{
		"flushes":     float64(wr.Flushes),
		"compactions": float64(wr.Compactions),
		"commits":     float64(wr.Commits),
		"tombstones":  float64(wr.Tombstones),
		"wal_bytes":   float64(wr.WALBytes),
	}, nil
}
