package engine

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the runtime types a Value can take.
type Kind uint8

// The supported value kinds. KindNull is the zero value, so a zero Value
// is NULL, mirroring SQL semantics.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar. It is a compact tagged union:
// Int doubles as the storage for booleans (0/1), and dates are stored as
// KindInt days since epoch by convention (see ParseDate).
type Value struct {
	K Kind
	I int64
	F float64
	S string
}

// Convenience constructors.

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

// Str returns a string value.
func Str(s string) Value { return Value{K: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{K: KindBool, I: 1}
	}
	return Value{K: KindBool}
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Truth reports whether v is a true boolean. NULL and false are both
// not-true (SQL three-valued logic collapses to two-valued at the top of
// a WHERE clause).
func (v Value) Truth() bool { return v.K == KindBool && v.I != 0 }

// AsInt returns the value as int64, converting floats by truncation.
func (v Value) AsInt() int64 {
	switch v.K {
	case KindInt, KindBool:
		return v.I
	case KindFloat:
		return int64(v.F)
	default:
		return 0
	}
}

// AsFloat returns the value as float64.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt, KindBool:
		return float64(v.I)
	case KindFloat:
		return v.F
	default:
		return 0
	}
}

// String renders the value for display and for EXPLAIN output.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Quoted renders the value as a literal (strings quoted), used by plan
// printers.
func (v Value) Quoted() string {
	if v.K == KindString {
		return "'" + v.S + "'"
	}
	return v.String()
}

// numericKinds reports whether both kinds are numeric (int or float).
func numericKinds(a, b Kind) bool {
	return (a == KindInt || a == KindFloat) && (b == KindInt || b == KindFloat)
}

// Compare orders two values. NULL sorts before everything; values of
// different non-numeric kinds order by kind. Numeric kinds compare by
// numeric value. Returns -1, 0, or +1.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == KindNull && b.K == KindNull:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.K != b.K {
		if numericKinds(a.K, b.K) {
			return compareFloat(a.AsFloat(), b.AsFloat())
		}
		if a.K < b.K {
			return -1
		}
		return 1
	}
	switch a.K {
	case KindInt, KindBool:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	case KindFloat:
		return compareFloat(a.F, b.F)
	case KindString:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		default:
			return 0
		}
	}
	return 0
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values are equal under Compare semantics,
// with NULL equal only to NULL (used for grouping/dedup, not predicates).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// FNV-1a parameters, inlined so hashing never allocates (hash/fnv's
// New64a escapes to the heap, which made per-row hashing on join hot
// paths allocate).
const (
	fnvOffset64 = 1469598103934665603
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func fnvUint64(h uint64, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(x))
		x >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// HashValue returns a 64-bit hash of the value, consistent with Equal
// (ints and floats that compare equal hash the same) and performing no
// allocation: an int (or a bool, or a float that is an integer) is
// mixed as a word — what hash joins probe with most, row by row — and
// any other value is an FNV-1a over a tagged byte rendering.
func HashValue(v Value) uint64 {
	switch v.K {
	case KindNull:
		return fnvByte(fnvOffset64, 0)
	case KindInt, KindBool:
		return hashInt(v.I)
	case KindFloat:
		// Hash floats that equal integers identically to the integer.
		if v.F == math.Trunc(v.F) && !math.IsInf(v.F, 0) &&
			v.F >= math.MinInt64 && v.F <= math.MaxInt64 {
			return hashInt(int64(v.F))
		}
		return fnvUint64(fnvByte(fnvOffset64, 2), math.Float64bits(v.F))
	case KindString:
		return fnvString(fnvByte(fnvOffset64, 3), v.S)
	}
	return fnvOffset64
}

// hashInt is HashValue of the int x: MurmurHash3's 64-bit finalizer,
// whose every output bit depends on every input bit, so the low bits an
// open-addressing table masks with are as good as the high ones.
func hashInt(x int64) uint64 {
	h := uint64(x)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// SizeBytes estimates the in-memory footprint of the value, used by the
// experiment harness to report database sizes analogous to the paper's
// MB column in Figure 9.
func (v Value) SizeBytes() int {
	// Tagged union: 1 tag + 8 payload, strings add their bytes.
	n := 9
	if v.K == KindString {
		n += len(v.S)
	}
	return n
}

// ParseDate converts "YYYY-MM-DD" into a day number (proleptic
// Gregorian, epoch 1970-01-01 = 0) stored as an int value. Dates are
// kept as integers so range predicates on dates are plain integer
// comparisons, as in the TPC-H substrate.
func ParseDate(s string) (Value, error) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return Null(), fmt.Errorf("engine: bad date %q", s)
	}
	y, err1 := strconv.Atoi(s[0:4])
	m, err2 := strconv.Atoi(s[5:7])
	d, err3 := strconv.Atoi(s[8:10])
	if err1 != nil || err2 != nil || err3 != nil || m < 1 || m > 12 || d < 1 || d > 31 {
		return Null(), fmt.Errorf("engine: bad date %q", s)
	}
	return Int(epochDays(y, m, d)), nil
}

// MustDate is ParseDate that panics on malformed input; intended for
// literals in tests and examples.
func MustDate(s string) Value {
	v, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return v
}

// FormatDate renders a day-number value back to "YYYY-MM-DD".
func FormatDate(v Value) string {
	y, m, d := fromEpochDays(v.AsInt())
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

// epochDays converts a calendar date to days since 1970-01-01 using the
// standard civil-date algorithm.
func epochDays(y, m, d int) int64 {
	yy := int64(y)
	if m <= 2 {
		yy--
	}
	era := yy / 400
	if yy < 0 && yy%400 != 0 {
		era--
	}
	yoe := yy - era*400
	var mm int64
	if m > 2 {
		mm = int64(m) - 3
	} else {
		mm = int64(m) + 9
	}
	doy := (153*mm+2)/5 + int64(d) - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return era*146097 + doe - 719468
}

func fromEpochDays(z int64) (y, m, d int) {
	z += 719468
	era := z / 146097
	if z < 0 && z%146097 != 0 {
		era--
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	yy := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d = int(doy - (153*mp+2)/5 + 1)
	if mp < 10 {
		m = int(mp + 3)
	} else {
		m = int(mp - 9)
	}
	if m <= 2 {
		yy++
	}
	return int(yy), m, d
}
