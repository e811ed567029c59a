package cluster

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/ws"
)

// wireResult is a small decoded result to ship: r(a, b) with two
// uncertain tuples, projected on both attributes.
func wireResult(t testing.TB) *core.UResult {
	t.Helper()
	db := core.NewUDB()
	db.MustAddRelation("r", "a", "b")
	u := db.MustAddPartition("r", "u_r", "a", "b")
	x, y := db.W.NewBoolVar("x"), db.W.NewBoolVar("y")
	u.Add(ws.MustDescriptor(ws.A(x, 1)), 1, engine.Int(1), engine.Str("p"))
	u.Add(ws.MustDescriptor(ws.A(x, 2)), 1, engine.Int(2), engine.Str("p"))
	u.Add(ws.MustDescriptor(ws.A(y, 1)), 2, engine.Int(3), engine.Float(0.5))
	u.Add(nil, 3, engine.Int(4), engine.Null())
	res, err := db.Eval(core.Rel("r"), engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDecodeReprRejectsRaggedRows: a shard row whose tuple ids or values
// do not match the representation's columns in number, and a shard
// whose tuple-id columns disagree with the shards before it, are
// errors — where they used to decode into rows the certain-answer and
// confidence pipelines index out of range.
func TestDecodeReprRejectsRaggedRows(t *testing.T) {
	res := wireResult(t)
	good := EncodeRepr(res)
	if len(good.Attrs) != 2 || len(good.Rows) == 0 {
		t.Fatalf("fixture: %d attributes, %d rows", len(good.Attrs), len(good.Rows))
	}
	into := func() *core.UResult { return &core.UResult{W: res.W} }
	if err := decodeReprInto(into(), good); err != nil {
		t.Fatalf("a well-formed representation: %v", err)
	}
	ragged := func(edit func(r *Repr)) *Repr {
		raw, err := json.Marshal(good)
		if err != nil {
			t.Fatal(err)
		}
		var r Repr
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		edit(&r)
		return &r
	}
	extra := WireValue{engine.Int(9)}
	for name, rep := range map[string]*Repr{
		"three values under two attrs": ragged(func(r *Repr) { r.Rows[0].V = append(r.Rows[0].V, extra) }),
		"one value under two attrs":    ragged(func(r *Repr) { r.Rows[1].V = r.Rows[1].V[:1] }),
		"a tuple id too many":          ragged(func(r *Repr) { r.Rows[0].T = append(r.Rows[0].T, extra) }),
	} {
		if err := decodeReprInto(into(), rep); err == nil {
			t.Errorf("%s: decoded without an error", name)
		}
	}
	// A later shard's tuple-id columns must agree with the first's.
	got := into()
	if err := decodeReprInto(got, good); err != nil {
		t.Fatal(err)
	}
	other := ragged(func(r *Repr) { r.TIDCols = append(r.TIDCols, "tid:s"); r.Rows = nil })
	if err := decodeReprInto(got, other); err == nil {
		t.Error("a shard with other tuple-id columns decoded without an error")
	}
}

// FuzzDecodeRepr feeds arbitrary bytes through the coordinator's gather
// path — json.Unmarshal into a Repr, then decodeReprInto — twice, as two
// shards' answers. Each input either fails to decode or decodes into
// rows whose possible and certain answers the pipelines compute without
// panicking.
//
//	go test -run=NONE -fuzz='^FuzzDecodeRepr$' -fuzztime=10s -fuzzminimizetime=1s ./internal/cluster
func FuzzDecodeRepr(f *testing.F) {
	res := wireResult(f)
	seed, err := json.Marshal(EncodeRepr(res))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"attrs":["a","b"],"tid_cols":["t"],"rows":[{"d":[0,1],"t":[["i","1"]],"v":[["i","1"],["s","x"],["n"]]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rep Repr
		if json.Unmarshal(data, &rep) != nil {
			return
		}
		got := &core.UResult{W: res.W}
		for i := 0; i < 2; i++ {
			if decodeReprInto(got, &rep) != nil {
				return
			}
		}
		got.PossibleTuples()
		got.CertainTuples(time.Time{})
	})
}

// TestErrorBodyBytes pins the error body a server writes for an Error:
// its keys sorted, as a map's were, and only the structured fields that
// are set. A field declared out of order fails here.
func TestErrorBodyBytes(t *testing.T) {
	for _, c := range []struct {
		err  *Error
		want string
	}{
		{Errorf(400, "server: bad <input>"), `{"error":"server: bad <input>"}`},
		{&Error{Status: 503, Catalog: "demo", Msg: "m", Fence: 7, NodesTried: 2, Shard: "s1"},
			`{"catalog":"demo","error":"m","fence":7,"nodes_tried":2,"shard":"s1"}`},
	} {
		// The encoding of server.writeJSON: no HTML escaping.
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(c.err); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != c.want+"\n" {
			t.Errorf("body %s, want %s", got, c.want)
		}
	}
}
