package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
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

// FuzzRowEncoder holds AppendRow to encoding/json. A row of drawn cells
// — a raw cell, then one value per kind byte (the j-th of kind k%5),
// then a trailing float — decodes, numbers read as json.Number, to
// what encoding/json's encoding of the same cells as []any decodes to;
// and a row encoding/json refuses (a NaN or an infinity) AppendRow
// refuses too, leaving dst as it was.
//
//	go test -run=NONE -fuzz='^FuzzRowEncoder$' -fuzztime=10s -fuzzminimizetime=1s ./internal/cluster
func FuzzRowEncoder(f *testing.F) {
	if b, err := AppendRow(nil, nil, nil); err != nil || string(b) != "[]" {
		f.Fatalf("the empty row is %q, %v", b, err)
	}
	for _, s := range []string{"", "plain", `quo"te`, `back\slash`, "ctl\x00\x01\x1f\b\f\n\r\t\x7f",
		"bad\xffutf8\xc3", "line\u2028sep\u2029", "<a>&amp;", "é ü 中"} {
		f.Add([]byte{0, 1, 2, 3, 4}, int64(7), 0.5, s, 0.25)
	}
	for _, i := range []int64{math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1, 1<<53 + 1} {
		f.Add([]byte{1, 6}, i, 1.0, "", 1.0)
	}
	for _, x := range []float64{math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e21, 1e-7, 1e-6,
		999999999999999e6, 1.5e-300, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add([]byte{2, 7}, int64(1), x, "s", x)
		f.Add([]byte{8}, int64(1), 0.0, "s", x)
	}
	f.Fuzz(func(t *testing.T, kinds []byte, i int64, x float64, s string, p float64) {
		raw, _ := json.Marshal(s)
		row := []any{json.RawMessage(raw)} // the cells as the server once held them
		var vals []engine.Value
		for j, k := range kinds {
			switch k % 5 {
			case 0:
				vals, row = append(vals, engine.Null()), append(row, nil)
			case 1:
				vals, row = append(vals, engine.Int(i+int64(j))), append(row, i+int64(j))
			case 2:
				vals, row = append(vals, engine.Float(x)), append(row, x)
			case 3:
				vals, row = append(vals, engine.Str(s)), append(row, s)
			case 4:
				vals, row = append(vals, engine.Bool(j%2 == 0)), append(row, j%2 == 0)
			}
		}
		row = append(row, p)
		want, werr := json.Marshal(row)
		got, gerr := AppendRow([]byte("dst"), []json.RawMessage{raw}, vals, p)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("encoding/json: %v; AppendRow: %v", werr, gerr)
		}
		if !bytes.HasPrefix(got, []byte("dst")) || gerr != nil && len(got) != 3 {
			t.Fatalf("AppendRow wrote %q over dst", got)
		}
		if gerr != nil {
			return
		}
		if g, w := decodeNumbers(t, got[3:]), decodeNumbers(t, want); !reflect.DeepEqual(g, w) {
			t.Fatalf("AppendRow wrote %s, which reads %#v; encoding/json %s, which reads %#v", got[3:], g, want, w)
		}
	})
}

// decodeNumbers decodes one JSON value, numbers as json.Number, and
// fails on anything after it.
func decodeNumbers(t *testing.T, b []byte) any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("%s: %v", b, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("%s: data after the value (%v)", b, err)
	}
	return v
}
