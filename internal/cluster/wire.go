package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/obs"
	"urel/internal/ws"
)

// QueryRequest is the POST /query body — the one wire type shared by
// single-node serving and the coordinator, so a shard node cannot
// drift from what the coordinator sends it.
type QueryRequest struct {
	// SQL is a statement in the sqlparse dialect:
	// [POSSIBLE|CERTAIN|CONF] SELECT cols FROM tables [WHERE cond].
	SQL string `json:"sql"`
	// DB names the catalog; optional when exactly one is registered.
	DB string `json:"db"`
	// Limit caps the rows returned in the response (the full count is
	// still reported as row_count). 0 = no client cap.
	Limit int `json:"limit"`
	// TimeoutMS lowers the server's per-query deadline.
	TimeoutMS int `json:"timeout_ms"`
	// MaxRows lowers the server's row cap for this query: a coordinator
	// relaying a statement one shard answers whole passes its own.
	MaxRows int `json:"max_rows,omitempty"`
	// Accuracy selects the confidence evaluation policy for CONF
	// queries: "exact" (default — read-once fast path, enumeration,
	// Monte-Carlo past the cap), "bounds" (one-pass certain/possible
	// bounds, never enumerates), or "auto" (exact within the deadline,
	// degrading to bounds instead of failing with 504).
	Accuracy string `json:"accuracy"`
	// Trace requests an operator-level execution trace in the response
	// ("trace" field): per relational operator, the rows and batches
	// emitted, wall time, estimated rows, and store-side effects
	// (segments read/pruned, cache hits, bytes decoded).
	Trace bool `json:"trace"`
	// Wire selects the result encoding: "" renders answers as JSON rows;
	// "repr" returns the query's result representation (descriptors,
	// tuple ids, values) for CERTAIN/CONF statements instead of the
	// rendered answer — the coordinator's gather format, in which the
	// certain-answer and confidence computations run centrally over the
	// union of shard representations.
	Wire string `json:"wire,omitempty"`
	// Partial opts a coordinated query into graceful degradation: when
	// a shard stays unreachable past failover, possible/plain answers
	// come back from the reachable shards with "partial": true and the
	// missing shards named, and confidence degrades to bounds that stay
	// sound under the absent shard (lower = max over reachable shards,
	// upper = 1). Default false = fail fast with a 503.
	Partial bool `json:"partial,omitempty"`
}

// ExecRequest is the POST /exec body.
type ExecRequest struct {
	SQL string `json:"sql"`
	DB  string `json:"db"`
}

// FenceHeader carries the coordinator's fencing epoch on coordinated
// writes. A primary whose manifest records a different epoch refuses
// the write (409); see txn.DB.CheckFence.
const FenceHeader = "X-Urel-Fence"

// Error is a failed request's HTTP status and JSON error body, the one
// error type of the server and the coordinator. The body is {"error":
// Msg} plus the structured fields that are set: Shard, Catalog and
// NodesTried on shard-level failures, so clients and tests can match on
// them instead of prose, and Fence on a 409 fencing refusal — the
// refusing store's own epoch, which a stale coordinator adopts before
// retrying. The fields are declared in key order, so the body's keys
// come out sorted.
type Error struct {
	Status     int    `json:"-"`
	Catalog    string `json:"catalog,omitempty"`
	Msg        string `json:"error"`
	Fence      uint64 `json:"fence,omitempty"`
	NodesTried int    `json:"nodes_tried,omitempty"`
	Shard      string `json:"shard,omitempty"`
}

func (e *Error) Error() string { return e.Msg }

// Errorf returns an Error with status and a formatted message.
func Errorf(status int, format string, args ...any) *Error {
	return &Error{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// QueryResponse is the POST /query body: a node writes it, and a
// coordinator reads it of its shards and writes it in turn.
type QueryResponse struct {
	DB      string   `json:"db"`
	Mode    string   `json:"mode"`
	Columns []string `json:"columns"`
	// Rows are the answer rows, each as AppendRow wrote it.
	Rows      []json.RawMessage `json:"rows"`
	RowCount  int               `json:"row_count"`
	Truncated bool              `json:"truncated,omitempty"`
	Estimator string            `json:"estimator,omitempty"` // conf: "read-once", "exact", "monte-carlo", or "bounds"
	Degraded  bool              `json:"degraded,omitempty"`  // conf auto: exact missed the deadline, bounds returned
	ReprRows  int               `json:"repr_rows,omitempty"` // conf bounds: the representation rows they were computed from
	// Partial marks a coordinator answer some shards did not contribute
	// to ("partial": true requests only): possible/plain rows are a
	// sound subset, conf bounds are widened. MissingShards names them.
	Partial       bool      `json:"partial,omitempty"`
	MissingShards []string  `json:"missing_shards,omitempty"`
	PlanCached    bool      `json:"plan_cached"` // the node that evaluated ran a cached physical plan (a coordinator's merge never does)
	ElapsedMS     float64   `json:"elapsed_ms"`
	Plan          string    `json:"plan,omitempty"`  // EXPLAIN [ANALYZE]: the rendered plan
	Trace         *obs.Span `json:"trace,omitempty"` // operator trace ("trace": true)
	Repr          *Repr     `json:"repr,omitempty"`  // "wire": "repr": the result representation
}

// AppendRow, the one encoder of answer rows, appends a row to dst as a
// JSON array: the raw cells as they are, the values, then the trailing
// float cells (_p, _p_lo, _p_hi). Equal rows are equal bytes on every
// node. NaN and the infinities are refused, as encoding/json refuses
// them.
func AppendRow(dst []byte, raw []json.RawMessage, vals []engine.Value, floats ...float64) ([]byte, error) {
	start := len(dst)
	dst = append(dst, '[')
	for _, c := range raw {
		dst = append(append(dst, c...), ',')
	}
	var err error
	for i, n := 0, len(vals); i < n+len(floats); i++ {
		v := engine.Float(0)
		if i < n {
			v = vals[i]
		} else {
			v.F = floats[i-n]
		}
		if dst, err = appendValue(dst, v); err != nil {
			return dst[:start], err
		}
		dst = append(dst, ',')
	}
	if dst[len(dst)-1] == ',' {
		dst[len(dst)-1] = ']'
		return dst, nil
	}
	return append(dst, ']'), nil
}

// appendValue writes a cell as encoding/json writes its Go value (a
// float in its shortest round-trip form); a string that is not plain
// ASCII goes through encoding/json, which escapes it.
func appendValue(dst []byte, v engine.Value) ([]byte, error) {
	switch v.K {
	case engine.KindNull:
		return append(dst, "null"...), nil
	case engine.KindInt:
		return strconv.AppendInt(dst, v.I, 10), nil
	case engine.KindBool:
		return strconv.AppendBool(dst, v.I != 0), nil
	case engine.KindString:
		for i := 0; i < len(v.S); i++ {
			if c := v.S[i]; c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf {
				b, _ := json.Marshal(v.S)
				return append(dst, b...), nil
			}
		}
		return append(append(append(dst, '"'), v.S...), '"'), nil
	case engine.KindFloat:
		if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
			return dst, fmt.Errorf("cluster: unsupported float value %v", v.F)
		}
		if abs := math.Abs(v.F); abs == 0 || 1e-6 <= abs && abs < 1e21 {
			return strconv.AppendFloat(dst, v.F, 'f', -1, 64), nil
		}
		dst = strconv.AppendFloat(dst, v.F, 'e', -1, 64)
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2], dst = dst[n-1], dst[:n-1] // e-07 -> e-7
		}
		return dst, nil
	}
	return dst, fmt.Errorf("cluster: unencodable value kind %v", v.K)
}

// RowWriter writes answer rows into chunks: a chunk short of room
// starts one twice its size, so no row written is copied.
type RowWriter struct {
	Rows []json.RawMessage
	buf  []byte
}

// Add writes one row with AppendRow and keeps it.
func (w *RowWriter) Add(raw []json.RawMessage, vals []engine.Value, floats ...float64) (err error) {
	if cap(w.buf)-len(w.buf) < 64 {
		w.buf = make([]byte, 0, max(2*cap(w.buf), 16*cap(w.Rows), 64))
	}
	start := len(w.buf)
	if w.buf, err = AppendRow(w.buf, raw, vals, floats...); err == nil {
		w.Rows = append(w.Rows, w.buf[start:len(w.buf):len(w.buf)])
	}
	return err
}

// ExecResponse is the POST /exec body of a successful DML statement —
// the one wire type of a single node, a shard primary, and the
// coordinator, which sums its shards' counts.
type ExecResponse struct {
	DB        string  `json:"db"`
	Kind      string  `json:"kind"`
	Tuples    int     `json:"tuples"`
	ReprRows  int     `json:"repr_rows"`
	Tombs     int     `json:"tombstones"`
	Epoch     uint64  `json:"epoch"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Repr is a query result in representation form, shipped shard →
// coordinator for the modes whose answers are not unions of per-shard
// answers (CERTAIN, exact CONF).
type Repr struct {
	Attrs   []string  `json:"attrs"`
	TIDCols []string  `json:"tid_cols"`
	Rows    []ReprRow `json:"rows"`
}

// ReprRow is one representation row: the ws-descriptor as a flat
// [var, val, var, val, ...] array, then tid-column and attribute
// values in the kind-tagged wire encoding.
type ReprRow struct {
	D []int64     `json:"d"`
	T []WireValue `json:"t"`
	V []WireValue `json:"v"`
}

// WireValue is an engine value in kind-tagged JSON array form:
// ["n"] null, ["i","123"] int, ["f",1.5] float, ["s","x"] string,
// ["b",true] bool. Integers (including tuple ids) travel as strings
// because JSON numbers round through float64 and would corrupt 64-bit
// ids.
type WireValue struct{ engine.Value }

// MarshalJSON implements the kind-tagged encoding, written by
// AppendRow.
func (v WireValue) MarshalJSON() ([]byte, error) {
	const tags = "nifsb"
	if int(v.K) >= len(tags) {
		return nil, fmt.Errorf("cluster: unencodable value kind %v", v.K)
	}
	cells := []engine.Value{engine.Str(tags[v.K : v.K+1]), v.Value}
	switch v.K {
	case engine.KindNull:
		cells = cells[:1]
	case engine.KindInt:
		cells[1] = engine.Str(strconv.FormatInt(v.I, 10))
	}
	return AppendRow(nil, nil, cells)
}

// UnmarshalJSON decodes the kind-tagged encoding.
func (v *WireValue) UnmarshalJSON(data []byte) error {
	var parts []json.RawMessage
	if err := json.Unmarshal(data, &parts); err != nil {
		return err
	}
	var tag, s string
	if len(parts) == 0 || json.Unmarshal(parts[0], &tag) != nil {
		return fmt.Errorf("cluster: wire value %s has no tag", data)
	}
	if tag == "n" {
		v.Value = engine.Null()
		return nil
	}
	if len(parts) != 2 {
		return fmt.Errorf("cluster: wire value %q wants a payload", tag)
	}
	var err error
	switch tag {
	case "i":
		var i int64
		if err = json.Unmarshal(parts[1], &s); err == nil {
			if i, err = strconv.ParseInt(s, 10, 64); err != nil {
				return fmt.Errorf("cluster: bad wire int %q", s)
			}
		}
		v.Value = engine.Int(i)
	case "f":
		var f float64
		err = json.Unmarshal(parts[1], &f)
		v.Value = engine.Float(f)
	case "s":
		err = json.Unmarshal(parts[1], &s)
		v.Value = engine.Str(s)
	case "b":
		var b bool
		err = json.Unmarshal(parts[1], &b)
		v.Value = engine.Bool(b)
	default:
		err = fmt.Errorf("cluster: unknown wire value tag %q", tag)
	}
	return err
}

// EncodeRepr renders a decoded result as the gather wire form.
func EncodeRepr(res *core.UResult) *Repr {
	out := &Repr{Attrs: res.Attrs, TIDCols: res.TIDCols, Rows: make([]ReprRow, len(res.Rows))}
	for i, r := range res.Rows {
		row := ReprRow{
			D: make([]int64, 0, 2*len(r.D)),
			T: make([]WireValue, len(r.TIDs)),
			V: make([]WireValue, len(r.Vals)),
		}
		for _, a := range r.D {
			row.D = append(row.D, int64(a.Var), int64(a.Val))
		}
		for j, t := range r.TIDs {
			row.T[j] = WireValue{t}
		}
		for j, v := range r.Vals {
			row.V[j] = WireValue{v}
		}
		out.Rows[i] = row
	}
	return out
}

// decodeReprInto appends a shard's representation rows to res,
// restoring descriptors from their flat form. Descriptors arrive in
// the canonical order the producing server emitted, so no
// re-normalization is needed (or wanted: it would have to re-validate
// against W, which decode callers already hold). A shard whose
// attributes or tuple-id columns disagree with the shards before it,
// and a row whose tuple ids or values do not match them in width, are
// errors: the pipelines downstream index every row by those widths.
func decodeReprInto(res *core.UResult, rep *Repr) error {
	if res.Attrs == nil && res.TIDCols == nil && len(res.Rows) == 0 {
		res.Attrs = rep.Attrs
		res.TIDCols = rep.TIDCols
	} else if len(res.Attrs) != len(rep.Attrs) {
		return fmt.Errorf("cluster: shard representations disagree on attributes (%v vs %v)", res.Attrs, rep.Attrs)
	} else if !slices.Equal(res.TIDCols, rep.TIDCols) {
		return fmt.Errorf("cluster: shard representations disagree on tuple-id columns (%v vs %v)", res.TIDCols, rep.TIDCols)
	}
	for _, r := range rep.Rows {
		if len(r.D)%2 != 0 {
			return fmt.Errorf("cluster: odd descriptor encoding length %d", len(r.D))
		}
		if len(r.T) != len(res.TIDCols) || len(r.V) != len(res.Attrs) {
			return fmt.Errorf("cluster: a representation row has %d tuple ids and %d values, its columns are %d and %d",
				len(r.T), len(r.V), len(res.TIDCols), len(res.Attrs))
		}
		d := make(ws.Descriptor, 0, len(r.D)/2)
		for i := 0; i < len(r.D); i += 2 {
			d = append(d, ws.A(ws.Var(r.D[i]), ws.Val(r.D[i+1])))
		}
		row := core.UResultRow{D: d, TIDs: make(engine.Tuple, len(r.T)), Vals: make(engine.Tuple, len(r.V))}
		for i, t := range r.T {
			row.TIDs[i] = t.Value
		}
		for i, v := range r.V {
			row.Vals[i] = v.Value
		}
		res.Rows = append(res.Rows, row)
	}
	return nil
}
