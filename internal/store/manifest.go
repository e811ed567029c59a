package store

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The manifest's decoder. It reads the JSON that WriteManifest's
// json.MarshalIndent writes, without reflection and in a few
// allocations: each list is gathered in a pooled scratch slice and
// copied out at its length, and a partition's attribute names, when
// they run in its relation's order, are a window of the relation's
// list, its strings shared. Keys may come in any order, and an unknown
// one is skipped at every level, so an older reader opens a manifest
// that a newer writer extended. What it accepts, encoding/json accepts
// and decodes to the same Manifest (FuzzParseManifest holds it to
// that); it is stricter where the two could differ: a duplicate key, a
// key that matches a field only case-folded, a null where no list or
// shard may be, invalid UTF-8, a lone surrogate escape and nesting
// deeper than maxManifestDepth are refused as ErrCorrupt.

var (
	manTopKeys   = []string{"version", "wal", "epoch", "relations", "shard", "fence", "fenced_by"}
	manRelKeys   = []string{"name", "attrs", "partitions", "max_tid", "indexes", "existence_complete"}
	manPartKeys  = []string{"name", "attrs", "file", "rows", "width", "deltas"}
	manDeltaKeys = []string{"file", "rows", "width"}
	manShardKeys = []string{"index", "count", "sharded"}
)

// maxManifestDepth bounds the nesting of objects and arrays.
const maxManifestDepth = 64

// manDecoder is the decoder's state: the input, the position in it and
// the scratch lists, empty between uses.
type manDecoder struct {
	b     []byte
	pos   int
	depth int
	rels  []ManifestRel
	parts []ManifestPart
	dels  []ManifestDelta
	strs  []string
}

var manDecoders = sync.Pool{New: func() any { return new(manDecoder) }}

// decodeManifest decodes the manifest JSON in b, which it keeps nothing of.
func decodeManifest(b []byte) (*Manifest, error) {
	d := manDecoders.Get().(*manDecoder)
	defer manDecoders.Put(d)
	d.b, d.pos, d.depth = b, 0, 0
	defer func() { d.b = nil }()
	m := &Manifest{}
	err := d.object(manTopKeys, func(k int) error {
		switch k {
		case 0:
			return d.int(&m.Version)
		case 1:
			return d.str(&m.WAL, nil)
		case 2:
			return d.uint(&m.Epoch)
		case 3:
			return d.relations(&m.Relations)
		case 4:
			return d.shard(&m.Shard)
		case 5:
			return d.uint(&m.Fence)
		default:
			return d.uint(&m.FencedBy)
		}
	})
	if err != nil {
		return nil, err
	}
	if d.ws(); d.pos != len(d.b) {
		return nil, d.fail("trailing data")
	}
	return m, nil
}

func (d *manDecoder) fail(what string) error {
	return corruptf("catalog: %s at byte %d", what, d.pos)
}

// ws skips JSON whitespace.
func (d *manDecoder) ws() {
	b, i := d.b, d.pos
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	d.pos = i
}

// next skips whitespace and returns the byte there, 0 at the end.
func (d *manDecoder) next() byte {
	if d.ws(); d.pos < len(d.b) {
		return d.b[d.pos]
	}
	return 0
}

// literal consumes word if the input continues with it.
func (d *manDecoder) literal(word string) bool {
	if bytes.HasPrefix(d.b[d.pos:], []byte(word)) {
		d.pos += len(word)
		return true
	}
	return false
}

// null consumes a null, if one is next.
func (d *manDecoder) null() bool { return d.next() == 'n' && d.literal("null") }

// enter consumes the opening bracket of an object or array.
func (d *manDecoder) enter(open byte, what string) error {
	if d.next() != open {
		return d.fail("want " + what)
	}
	if d.depth++; d.depth > maxManifestDepth {
		return d.fail("nesting too deep")
	}
	d.pos++
	return nil
}

// object decodes an object, calling field with the index in keys of
// each key it knows and skipping the values of the others.
func (d *manDecoder) object(keys []string, field func(k int) error) error {
	if err := d.enter('{', "an object"); err != nil {
		return err
	}
	defer func() { d.depth-- }()
	if d.next() == '}' {
		d.pos++
		return nil
	}
	var seen uint64
	for {
		if d.next() != '"' {
			return d.fail("want a key")
		}
		key, err := d.text()
		if err != nil {
			return err
		}
		if d.next() != ':' {
			return d.fail("want ':'")
		}
		d.pos++
		k := keyIndex(keys, key)
		switch {
		case k == -2:
			return d.fail("a key that matches a field only case-folded")
		case k < 0:
			err = d.skip()
		case seen&(1<<k) != 0:
			return d.fail("duplicate key " + keys[k])
		default:
			seen |= 1 << k
			err = field(k)
		}
		if err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.fail("want ',' or '}'")
		}
	}
}

// keyIndex returns the index in keys of key, -1 if it is none of them
// and -2 if it matches one only case-folded, as encoding/json would.
func keyIndex(keys []string, key []byte) int {
	for i, name := range keys {
		if string(key) == name {
			return i
		}
	}
	for _, name := range keys {
		if bytes.EqualFold(key, []byte(name)) {
			return -2
		}
	}
	return -1
}

// array decodes an array, calling elem for each element.
func (d *manDecoder) array(elem func() error) error {
	if err := d.enter('[', "an array"); err != nil {
		return err
	}
	defer func() { d.depth-- }()
	if d.next() == ']' {
		d.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.fail("want ',' or ']'")
		}
	}
}

// skip consumes one value of any kind, checking it as JSON.
func (d *manDecoder) skip() error {
	switch c := d.next(); {
	case c == '{':
		return d.object(nil, nil)
	case c == '[':
		return d.array(d.skip)
	case c == '"':
		_, err := d.text()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	case d.literal("true") || d.literal("false") || d.literal("null"):
		return nil
	}
	return d.fail("want a value")
}

// number consumes a JSON number and returns its text.
func (d *manDecoder) number() ([]byte, error) {
	at := d.pos
	if d.pos < len(d.b) && d.b[d.pos] == '-' {
		d.pos++
	}
	if n := d.digits(); n == 0 || n > 1 && d.b[d.pos-n] == '0' {
		return nil, d.fail("want a number")
	}
	if d.pos < len(d.b) && d.b[d.pos] == '.' {
		d.pos++
		if d.digits() == 0 {
			return nil, d.fail("want a digit")
		}
	}
	if d.pos < len(d.b) && (d.b[d.pos] == 'e' || d.b[d.pos] == 'E') {
		if d.pos++; d.pos < len(d.b) && (d.b[d.pos] == '+' || d.b[d.pos] == '-') {
			d.pos++
		}
		if d.digits() == 0 {
			return nil, d.fail("want a digit")
		}
	}
	return d.b[at:d.pos], nil
}

// digits consumes a run of decimal digits and returns its length.
func (d *manDecoder) digits() int {
	at := d.pos
	for d.pos < len(d.b) && '0' <= d.b[d.pos] && d.b[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - at
}

// integer consumes a number that must be an integer and returns its
// text, which strconv parses as encoding/json does.
func (d *manDecoder) integer() ([]byte, error) {
	if c := d.next(); c != '-' && (c < '0' || c > '9') {
		return nil, d.fail("want a number")
	}
	t, err := d.number()
	if err == nil && bytes.ContainsAny(t, ".eE") {
		err = d.fail("want an integer")
	}
	return t, err
}

func (d *manDecoder) int(dst *int) error {
	v, err := d.int64Of(strconv.IntSize)
	*dst = int(v)
	return err
}

func (d *manDecoder) int64(dst *int64) (err error) {
	*dst, err = d.int64Of(64)
	return err
}

func (d *manDecoder) int64Of(bits int) (int64, error) {
	t, err := d.integer()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(t), 10, bits)
	if err != nil {
		return 0, d.fail("integer out of range")
	}
	return v, nil
}

func (d *manDecoder) uint(dst *uint64) error {
	t, err := d.integer()
	if err != nil {
		return err
	}
	if *dst, err = strconv.ParseUint(string(t), 10, 64); err != nil {
		return d.fail("want an unsigned integer")
	}
	return nil
}

func (d *manDecoder) bool(dst *bool) error {
	switch {
	case d.next() == 't' && d.literal("true"):
		*dst = true
	case d.next() == 'f' && d.literal("false"):
		*dst = false
	default:
		return d.fail("want true or false")
	}
	return nil
}

// text consumes a string and returns its contents: a window of the
// input when it holds no escape, else an unescaped copy.
func (d *manDecoder) text() ([]byte, error) {
	if d.next() != '"' {
		return nil, d.fail("want a string")
	}
	start, ascii := d.pos+1, true
	var out []byte // the contents, once an escape is met
	for i := start; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			if d.pos = i + 1; !ascii && !utf8.Valid(d.b[start:i]) {
				return nil, d.fail("invalid UTF-8")
			}
			if out == nil {
				return d.b[start:i], nil
			}
			return append(out, d.b[start:i]...), nil
		case c == '\\':
			r, n := escapeAt(d.b[i:])
			if n == 0 {
				d.pos = i
				return nil, d.fail("bad escape in string")
			}
			out = utf8.AppendRune(append(out, d.b[start:i]...), r)
			start, i = i+n, i+n-1
		case c < 0x20:
			d.pos = i
			return nil, d.fail("control character in string")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.pos = len(d.b)
	return nil, d.fail("unterminated string")
}

// escapeAt decodes the escape sequence that starts b and returns its
// rune and length, 0 for one JSON does not allow. A \u escape of half a
// surrogate pair must be the high half, followed by the low.
func escapeAt(b []byte) (rune, int) {
	if len(b) < 2 {
		return 0, 0
	}
	if k := strings.IndexByte("\"\\/bfnrt", b[1]); k >= 0 {
		return rune("\"\\/\b\f\n\r\t"[k]), 2
	}
	if b[1] != 'u' {
		return 0, 0
	}
	r, ok := hex4(b[2:])
	switch {
	case !ok:
	case !utf16.IsSurrogate(r):
		return r, 6
	case len(b) >= 8 && b[6] == '\\' && b[7] == 'u':
		if r2, ok := hex4(b[8:]); ok && utf16.DecodeRune(r, r2) != utf8.RuneError {
			return utf16.DecodeRune(r, r2), 12
		}
	}
	return 0, 0
}

// hex4 decodes the four hex digits that start b.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	v, err := strconv.ParseUint(string(b[:4]), 16, 16)
	return rune(v), err == nil
}

// str decodes a string into dst, reusing an equal string of share.
func (d *manDecoder) str(dst *string, share []string) error {
	t, err := d.text()
	if err != nil {
		return err
	}
	for _, s := range share {
		if s == string(t) {
			*dst = s
			return nil
		}
	}
	*dst = string(t)
	return nil
}

// gather decodes an array, or null, into dst: elem decodes each element
// into the scratch list, and keep makes dst of what it gathered.
func gather[T any](d *manDecoder, dst *[]T, scratch *[]T, elem func(*T) error, keep func([]T) []T) error {
	if d.null() {
		*dst = nil
		return nil
	}
	err := d.array(func() error {
		*scratch = append(*scratch, *new(T))
		return elem(&(*scratch)[len(*scratch)-1])
	})
	got := *scratch
	defer func() { clear(got); *scratch = got[:0] }()
	if err == nil {
		*dst = keep(got)
	}
	return err
}

// copied returns a copy of xs at its length, empty but not nil when xs
// is empty, as encoding/json makes a list.
func copied[T any](xs []T) []T { return append(make([]T, 0, len(xs)), xs...) }

// strings decodes a list of strings. Names it shares with share are
// share's strings, and a list that runs in share's order is a
// capacity-limited window of share.
func (d *manDecoder) strings(dst *[]string, share []string) error {
	return gather(d, dst, &d.strs, func(s *string) error { return d.str(s, share) }, func(got []string) []string {
		for i := 0; len(got) > 0 && i+len(got) <= len(share); i++ {
			if w := share[i : i+len(got) : i+len(got)]; slices.Equal(w, got) {
				return w
			}
		}
		return copied(got)
	})
}

func (d *manDecoder) relations(dst *[]ManifestRel) error {
	return gather(d, dst, &d.rels, func(r *ManifestRel) error {
		return d.object(manRelKeys, func(k int) error {
			switch k {
			case 0:
				return d.str(&r.Name, nil)
			case 1:
				return d.strings(&r.Attrs, nil)
			case 2:
				return d.partitions(&r.Parts, r.Attrs)
			case 3:
				return d.int64(&r.MaxTID)
			case 4:
				return d.strings(&r.Indexes, r.Attrs)
			default:
				return d.bool(&r.ExistenceComplete)
			}
		})
	}, copied[ManifestRel])
}

// partitions decodes a relation's partitions; attrs is the relation's
// attribute list, if it came first.
func (d *manDecoder) partitions(dst *[]ManifestPart, attrs []string) error {
	return gather(d, dst, &d.parts, func(p *ManifestPart) error {
		return d.object(manPartKeys, func(k int) error {
			switch k {
			case 0:
				return d.str(&p.Name, nil)
			case 1:
				return d.strings(&p.Attrs, attrs)
			case 2:
				return d.str(&p.File, nil)
			case 3:
				return d.int(&p.Rows)
			case 4:
				return d.int(&p.Width)
			default:
				return d.deltas(&p.Deltas)
			}
		})
	}, copied[ManifestPart])
}

func (d *manDecoder) deltas(dst *[]ManifestDelta) error {
	return gather(d, dst, &d.dels, func(md *ManifestDelta) error {
		return d.object(manDeltaKeys, func(k int) error {
			switch k {
			case 0:
				return d.str(&md.File, nil)
			case 1:
				return d.int(&md.Rows)
			default:
				return d.int(&md.Width)
			}
		})
	}, copied[ManifestDelta])
}

func (d *manDecoder) shard(dst **ShardSpec) error {
	if d.null() {
		*dst = nil
		return nil
	}
	s := &ShardSpec{}
	*dst = s
	return d.object(manShardKeys, func(k int) error {
		switch k {
		case 0:
			return d.int(&s.Index)
		case 1:
			return d.int(&s.Count)
		default:
			return d.strings(&s.Sharded, nil)
		}
	})
}
