package cluster

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"urel/internal/core"
	"urel/internal/engine"
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

// shardResponse is the subset of a shard's /query response the
// coordinator inspects. Result rows stay raw JSON: merged row modes
// (possible union, plain concat) pass them through byte-identical —
// no float re-encoding — and the possible-mode dedup keys on the raw
// bytes, which is sound because every shard renders values through the
// same encoder.
type shardResponse struct {
	Mode      string            `json:"mode"`
	Columns   []string          `json:"columns"`
	Rows      []json.RawMessage `json:"rows"`
	RowCount  int               `json:"row_count"`
	Truncated bool              `json:"truncated"`
	Estimator string            `json:"estimator"`
	Degraded  bool              `json:"degraded"`
	ElapsedMS float64           `json:"elapsed_ms"`
	Plan      string            `json:"plan"`
	Repr      *Repr             `json:"repr"`
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

// MarshalJSON implements the kind-tagged encoding.
func (v WireValue) MarshalJSON() ([]byte, error) {
	switch v.K {
	case engine.KindNull:
		return []byte(`["n"]`), nil
	case engine.KindInt:
		return json.Marshal([]any{"i", strconv.FormatInt(v.I, 10)})
	case engine.KindFloat:
		return json.Marshal([]any{"f", v.F})
	case engine.KindString:
		return json.Marshal([]any{"s", v.S})
	case engine.KindBool:
		return json.Marshal([]any{"b", v.I != 0})
	default:
		return nil, fmt.Errorf("cluster: unencodable value kind %v", v.K)
	}
}

// UnmarshalJSON decodes the kind-tagged encoding.
func (v *WireValue) UnmarshalJSON(data []byte) error {
	var parts []json.RawMessage
	if err := json.Unmarshal(data, &parts); err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("cluster: empty wire value")
	}
	var tag string
	if err := json.Unmarshal(parts[0], &tag); err != nil {
		return err
	}
	if tag == "n" {
		v.Value = engine.Null()
		return nil
	}
	if len(parts) != 2 {
		return fmt.Errorf("cluster: wire value %q wants a payload", tag)
	}
	switch tag {
	case "i":
		var s string
		if err := json.Unmarshal(parts[1], &s); err != nil {
			return err
		}
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("cluster: bad wire int %q", s)
		}
		v.Value = engine.Int(i)
	case "f":
		var f float64
		if err := json.Unmarshal(parts[1], &f); err != nil {
			return err
		}
		v.Value = engine.Float(f)
	case "s":
		var s string
		if err := json.Unmarshal(parts[1], &s); err != nil {
			return err
		}
		v.Value = engine.Str(s)
	case "b":
		var b bool
		if err := json.Unmarshal(parts[1], &b); err != nil {
			return err
		}
		v.Value = engine.Bool(b)
	default:
		return fmt.Errorf("cluster: unknown wire value tag %q", tag)
	}
	return nil
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
