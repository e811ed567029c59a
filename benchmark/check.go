package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"urel/internal/core"
	"urel/internal/engine"
)

// answer is what the benchmark keeps of an expected or observed
// result: the row count and an order-independent hash of the rows.
type answer struct {
	rows int
	hash uint64
}

func (a answer) String() string { return fmt.Sprintf("%d rows #%016x", a.rows, a.hash) }

// add folds one canonical row into the answer. Hashes are summed, so
// row order does not matter and duplicates count.
func (a *answer) add(row string) {
	h := fnv.New64a()
	h.Write([]byte(row))
	a.rows++
	a.hash += h.Sum64()
}

// canonNumber renders ints and floats alike, to ten significant
// digits: the server's JSON writes 1000.0 as 1000, and a confidence
// summed in another row order may differ in its last bits.
func canonNumber(f float64) string { return strconv.FormatFloat(f, 'g', 10, 64) }

func canonValue(v engine.Value) string {
	switch v.K {
	case engine.KindNull:
		return "null"
	case engine.KindInt:
		return canonNumber(float64(v.I))
	case engine.KindFloat:
		return canonNumber(v.F)
	case engine.KindBool:
		return strconv.FormatBool(v.I != 0)
	default:
		return "s:" + v.S
	}
}

func canonTuple(t engine.Tuple, extra ...float64) string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte(0x1f)
		}
		b.WriteString(canonValue(v))
	}
	for _, f := range extra {
		b.WriteByte(0x1f)
		b.WriteString(canonNumber(f))
	}
	return b.String()
}

// answerOfRelation summarizes an engine relation.
func answerOfRelation(rel *engine.Relation) answer {
	var a answer
	for _, t := range rel.Rows {
		a.add(canonTuple(t))
	}
	return a
}

func answerOfConfidences(cs []core.TupleConfidence) answer {
	var a answer
	for _, c := range cs {
		a.add(canonTuple(c.Vals, c.P))
	}
	return a
}

func answerOfBounds(bs []core.TupleBounds) answer {
	var a answer
	for _, b := range bs {
		a.add(canonTuple(b.Vals, b.Certain, b.Possible))
	}
	return a
}

// answerOfJSONRows summarizes the "rows" of a server response, decoded
// with json.Number so that integers keep all their digits.
func answerOfJSONRows(rows []any) (answer, error) {
	var a answer
	var b strings.Builder
	for _, r := range rows {
		cells, ok := r.([]any)
		if !ok {
			return a, fmt.Errorf("row is %T, not an array", r)
		}
		b.Reset()
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(0x1f)
			}
			switch v := c.(type) {
			case nil:
				b.WriteString("null")
			case json.Number:
				f, err := v.Float64()
				if err != nil {
					return a, err
				}
				b.WriteString(canonNumber(f))
			case bool:
				b.WriteString(strconv.FormatBool(v))
			case string:
				b.WriteString("s:" + v)
			default:
				return a, fmt.Errorf("cell is %T", c)
			}
		}
		a.add(b.String())
	}
	return a, nil
}
