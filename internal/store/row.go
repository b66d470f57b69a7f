package store

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// Row is one stored row as the store holds it: the exact bytes of the
// codec's write layout (walcodec.go) — id i64, nFields u32, then the
// fields in ascending key order — in an immutable string. Committing,
// logging, snapshotting and shipping a row all move these bytes as they
// are; readers slice values out of them on demand.
//
// A Row is a value: copying it copies a string header, never the bytes,
// and nothing can write through it. Scalar accessors return the field's
// value, or the type's zero value when the field is absent or of another
// type; string results share the row's memory. The list accessors (IDs,
// Strings) and Get, Range and Record hand out fresh values the caller
// owns. The zero Row is "no row": every accessor reports absence.
type Row struct{ b string }

// rowField is one field sliced out of a row. val is the value's encoding
// after its kind byte: the content of a string or time (without the
// length prefix), the 8 bytes of an int or float, the byte of a bool, the
// count and elements of a list.
type rowField struct {
	name string
	kind uint8
	val  string
}

// le32 and le64 read little-endian integers out of a string.
func le32(s string, off int) uint32 {
	_ = s[off+3]
	return uint32(s[off]) | uint32(s[off+1])<<8 | uint32(s[off+2])<<16 | uint32(s[off+3])<<24
}

func le64(s string, off int) uint64 {
	return uint64(le32(s, off)) | uint64(le32(s, off+4))<<32
}

// ID returns the row's id, or 0 for the zero Row.
func (r Row) ID() int64 {
	if r.b == "" {
		return 0
	}
	return int64(le64(r.b, 0))
}

// numFields returns the number of stored fields (IDField not counted).
func (r Row) numFields() int {
	if r.b == "" {
		return 0
	}
	return int(le32(r.b, 8))
}

// fieldAt parses the field starting at off and returns it with the offset
// of the field after it. Rows are validated on the way in (encodeRow or
// decodeWALRecord), so the walk needs no error path.
func (r Row) fieldAt(off int) (rowField, int) {
	s := r.b
	kl := int(le32(s, off))
	off += 4
	f := rowField{name: s[off : off+kl], kind: s[off+kl]}
	off += kl + 1
	n := 0
	switch f.kind {
	case kindString, kindTime:
		l := int(le32(s, off))
		off += 4
		f.val = s[off : off+l]
		return f, off + l
	case kindInt, kindFloat:
		n = 8
	case kindBool:
		n = 1
	case kindIntList:
		n = 4 + 8*int(le32(s, off))
	case kindStringList:
		n = 4
		for i := int(le32(s, off)); i > 0; i-- {
			n += 4 + int(le32(s, off+n))
		}
	}
	f.val = s[off : off+n]
	return f, off + n
}

// field returns the named field; IDField is the id, read as an int
// field. Keys ascend, so the walk stops at the first key past name.
func (r Row) field(name string) (rowField, bool) {
	if r.b == "" {
		return rowField{}, false
	}
	if name == IDField {
		// The id leads the row in the same 8-byte form an int value takes.
		return rowField{name: IDField, kind: kindInt, val: r.b[:8]}, true
	}
	off := 12
	for i := r.numFields(); i > 0; i-- {
		f, next := r.fieldAt(off)
		if f.name == name {
			return f, true
		}
		if f.name > name {
			break
		}
		off = next
	}
	return rowField{}, false
}

// String returns the string stored under key, or "".
func (r Row) String(key string) string {
	if f, ok := r.field(key); ok && f.kind == kindString {
		return f.val
	}
	return ""
}

// Int returns the int64 stored under key, or 0.
func (r Row) Int(key string) int64 {
	if f, ok := r.field(key); ok && f.kind == kindInt {
		return f.int()
	}
	return 0
}

// Float returns the float64 stored under key, or 0.
func (r Row) Float(key string) float64 {
	if f, ok := r.field(key); ok && f.kind == kindFloat {
		return f.float()
	}
	return 0
}

// Bool returns the bool stored under key, or false.
func (r Row) Bool(key string) bool {
	if f, ok := r.field(key); ok && f.kind == kindBool {
		return f.val[0] == 1
	}
	return false
}

// Time returns the time.Time stored under key, or the zero time.
func (r Row) Time(key string) time.Time {
	if f, ok := r.field(key); ok && f.kind == kindTime {
		return f.time()
	}
	return time.Time{}
}

// IDs returns a fresh copy of the []int64 stored under key, or nil.
func (r Row) IDs(key string) []int64 {
	if f, ok := r.field(key); ok && f.kind == kindIntList {
		return f.ints()
	}
	return nil
}

// Strings returns a fresh copy of the []string stored under key, or nil.
func (r Row) Strings(key string) []string {
	if f, ok := r.field(key); ok && f.kind == kindStringList {
		return f.strings()
	}
	return nil
}

// Get returns the value stored under key as a Record would hold it — id
// under IDField, lists freshly copied — or nil if absent.
func (r Row) Get(key string) any {
	if f, ok := r.field(key); ok {
		return f.value()
	}
	return nil
}

// Range calls fn for every stored field in ascending key order (IDField
// excluded), with values as Get returns them, until fn returns false.
func (r Row) Range(fn func(key string, v any) bool) {
	off := 12
	for i := r.numFields(); i > 0; i-- {
		f, next := r.fieldAt(off)
		if !fn(f.name, f.value()) {
			return
		}
		off = next
	}
}

// Record decodes the row into a Record the caller owns, id included.
func (r Row) Record() Record {
	if r.b == "" {
		return nil
	}
	rec := make(Record, r.numFields()+1)
	rec[IDField] = r.ID()
	r.Range(func(k string, v any) bool {
		rec[k] = v
		return true
	})
	return rec
}

func (f rowField) int() int64     { return int64(le64(f.val, 0)) }
func (f rowField) float() float64 { return math.Float64frombits(le64(f.val, 0)) }

func (f rowField) time() time.Time {
	var t time.Time
	var b [16]byte // the codec accepts only the canonical 15- or 16-byte forms
	// The row was validated on the way in, which includes decoding this
	// very value, so the error cannot occur.
	_ = t.UnmarshalBinary(b[:copy(b[:], f.val)])
	return t
}

func (f rowField) ints() []int64 {
	out := make([]int64, le32(f.val, 0))
	for i := range out {
		out[i] = int64(le64(f.val, 4+8*i))
	}
	return out
}

func (f rowField) strings() []string {
	out := make([]string, le32(f.val, 0))
	off := 4
	for i := range out {
		l := int(le32(f.val, off))
		out[i] = f.val[off+4 : off+4+l]
		off += 4 + l
	}
	return out
}

// value boxes the field's value the way a Record holds it.
func (f rowField) value() any {
	switch f.kind {
	case kindString:
		return f.val
	case kindInt:
		return f.int()
	case kindFloat:
		return f.float()
	case kindBool:
		return f.val[0] == 1
	case kindTime:
		return f.time()
	case kindIntList:
		return f.ints()
	case kindStringList:
		return f.strings()
	}
	return nil
}

// appendKey appends the field's index key — keyFor of its value — to dst
// without boxing the value. Lists are not indexable.
func (f rowField) appendKey(dst []byte) ([]byte, bool) {
	switch f.kind {
	case kindString:
		return append(append(dst, "s:"...), f.val...), true
	case kindInt:
		return strconv.AppendInt(append(dst, "i:"...), f.int(), 10), true
	case kindFloat:
		return strconv.AppendFloat(append(dst, "f:"...), f.float(), 'g', -1, 64), true
	case kindBool:
		if f.val[0] == 1 {
			return append(dst, "b:1"...), true
		}
		return append(dst, "b:0"...), true
	case kindTime:
		return f.time().UTC().AppendFormat(append(dst, "t:"...), time.RFC3339Nano), true
	}
	return dst, false
}

// key returns the field's index key.
func (f rowField) key() (indexKey, bool) {
	var buf [64]byte
	k, ok := f.appendKey(buf[:0])
	if !ok {
		return "", false
	}
	return indexKey(k), true
}

// key returns the index key of the named field, false when the field is
// absent or unindexable.
func (r Row) key(field string) (indexKey, bool) {
	f, ok := r.field(field)
	if !ok {
		return "", false
	}
	return f.key()
}

// hasKey reports whether the named field's index key is one of keys,
// without allocating.
func (r Row) hasKey(field string, keys []indexKey) bool {
	f, ok := r.field(field)
	if !ok {
		return false
	}
	var buf [64]byte
	k, ok := f.appendKey(buf[:0])
	if !ok {
		return false
	}
	for _, key := range keys {
		if string(k) == string(key) {
			return true
		}
	}
	return false
}

// rank is typeRank of the field's value: bool, numeric, string, time,
// then lists.
func (f rowField) rank() int {
	switch f.kind {
	case kindBool:
		return 1
	case kindInt, kindFloat:
		return 2
	case kindString:
		return 3
	case kindTime:
		return 4
	}
	return 5
}

// compareTo is compareValues(f.value(), b) without boxing the field.
func (f rowField) compareTo(b any) (int, bool) {
	switch f.kind {
	case kindInt:
		x := f.int()
		switch y := b.(type) {
		case int64:
			return cmpOrdered(x, y), true
		case float64:
			return cmpOrdered(float64(x), y), true
		}
	case kindFloat:
		x := f.float()
		switch y := b.(type) {
		case float64:
			return cmpOrdered(x, y), true
		case int64:
			return cmpOrdered(x, float64(y)), true
		}
	case kindString:
		if y, ok := b.(string); ok {
			return cmpOrdered(f.val, y), true
		}
	case kindTime:
		if y, ok := b.(time.Time); ok {
			return f.time().Compare(y), true
		}
	}
	return 0, false
}

// order is compareFieldValues(f.value(), b) without boxing the field.
func (f rowField) order(b any) int {
	if ra, rb := f.rank(), typeRank(b); ra != rb {
		return cmpOrdered(int64(ra), int64(rb))
	}
	if c, ok := f.compareTo(b); ok {
		return c
	}
	if f.kind == kindBool {
		return compareFieldValues(f.val[0] == 1, b)
	}
	return 0
}

// MarshalJSON encodes the row exactly as encoding/json encodes its
// Record: an object with the keys, id included, in ascending order.
func (r Row) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(nil)
}

// AppendJSON appends the row's JSON encoding (see MarshalJSON) to dst.
// It allocates nothing beyond dst's growth for rows whose times are in
// UTC or the local zone.
func (r Row) AppendJSON(dst []byte) ([]byte, error) {
	if r.b == "" {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '{')
	idDone := false
	writeID := func() {
		dst = append(dst, `"id":`...)
		dst = strconv.AppendInt(dst, r.ID(), 10)
		idDone = true
	}
	off := 12
	for i := r.numFields(); i > 0; i-- {
		f, next := r.fieldAt(off)
		off = next
		if !idDone && f.name > IDField {
			writeID()
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, f.name)
		dst = append(dst, ':')
		var err error
		if dst, err = f.appendJSON(dst); err != nil {
			return nil, err
		}
		if i > 1 || !idDone {
			dst = append(dst, ',')
		}
	}
	if !idDone {
		writeID()
	}
	return append(dst, '}'), nil
}

// appendJSON appends the field's value as encoding/json encodes it.
func (f rowField) appendJSON(dst []byte) ([]byte, error) {
	switch f.kind {
	case kindString:
		return appendJSONString(dst, f.val), nil
	case kindInt:
		return strconv.AppendInt(dst, f.int(), 10), nil
	case kindFloat:
		return appendJSONFloat(dst, f.float())
	case kindBool:
		return strconv.AppendBool(dst, f.val[0] == 1), nil
	case kindTime:
		return appendJSONTime(dst, f.time())
	case kindIntList:
		dst = append(dst, '[')
		for i, n := 0, int(le32(f.val, 0)); i < n; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(le64(f.val, 4+8*i)), 10)
		}
		return append(dst, ']'), nil
	case kindStringList:
		dst = append(dst, '[')
		off := 4
		for i, n := 0, int(le32(f.val, 0)); i < n; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			l := int(le32(f.val, off))
			dst = appendJSONString(dst, f.val[off+4:off+4+l])
			off += 4 + l
		}
		return append(dst, ']'), nil
	}
	return dst, nil
}

// appendJSONFloat is encoding/json's float64 form: shortest round-trip
// digits, exponent notation outside [1e-6, 1e21), NaN and ±Inf refused.
func appendJSONFloat(dst []byte, x float64) ([]byte, error) {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		_, err := json.Marshal(x) // encoding/json's own error
		return nil, err
	}
	abs := math.Abs(x)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, x, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as encoding/json writes it.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendJSONTime is time.Time.MarshalJSON without its allocation: quoted
// RFC 3339 with nanoseconds, refusing what RFC 3339 cannot express.
func appendJSONTime(dst []byte, t time.Time) ([]byte, error) {
	start := len(dst) + 1
	dst = t.AppendFormat(append(dst, '"'), time.RFC3339Nano)
	end := len(dst)
	yearOK := dst[start+4] == '-'
	zoneOK := dst[end-1] == 'Z' ||
		!('0' <= dst[end-6] && dst[end-6] <= '9') && 10*(dst[end-5]-'0')+dst[end-4]-'0' < 24
	if !yearOK || !zoneOK {
		_, err := json.Marshal(t) // encoding/json's own error
		return nil, err
	}
	return append(dst, '"'), nil
}

// appendJSONString appends s as encoding/json quotes it with HTML
// escaping on (its default): the HTML metacharacters and control bytes
// become \u00XX escapes (or the short forms \n, \t, ...), invalid UTF-8
// becomes the replacement-character escape, and U+2028/U+2029 are
// escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
