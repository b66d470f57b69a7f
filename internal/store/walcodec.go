package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"
)

// The store's one payload codec: every WAL frame, every replicated frame
// and every snapshot chunk (persist.go) is a walRecord in this hand-rolled
// little-endian layout. The layout:
//
//	payload   := seq u64, nTables u32, table...
//	table     := name str, nextID i64, nDeletes u32, i64...,
//	             nWrites u32, write...
//	write     := id i64, nFields u32, field...
//	field     := key str, kind u8, value
//	value     := kindString     str
//	           | kindInt        i64
//	           | kindFloat      u64 (IEEE 754 bits)
//	           | kindBool       u8 (0 or 1)
//	           | kindTime       bytes (time.Time MarshalBinary)
//	           | kindIntList    u32 n, n×i64
//	           | kindStringList u32 n, n×str
//	str/bytes := u32 len, len bytes
//
// Decoding is strict: trailing garbage, truncation, unknown kinds, keys
// out of ascending order (or IDField, which id carries) and any value the
// encoder would have written differently are errors, so a frame that
// passes its CRC but not the codec is handled as corruption by the
// caller, and a payload that decodes re-encodes to the same bytes.

const (
	kindString uint8 = iota
	kindInt
	kindFloat
	kindBool
	kindTime
	kindIntList
	kindStringList
)

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendRow encodes a caller's record in the write layout: id, field
// count, then the fields in ascending key order (IDField is carried by
// id). It is how every Row is made (encodeRow); the commit path and the
// snapshot writer copy those bytes as they are.
func appendRow(buf []byte, id int64, r Record) ([]byte, error) {
	var scratch [32]string // sorts typical records without allocating
	ks := scratch[:0]
	for k := range r {
		if k != IDField {
			ks = append(ks, k)
		}
	}
	slices.Sort(ks)
	buf = appendI64(buf, id)
	buf = appendU32(buf, uint32(len(ks)))
	for _, k := range ks {
		var err error
		if buf, err = appendValue(buf, k, r[k]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// appendValue encodes one record value in the field layout, refusing
// unsupported types with ErrBadValue.
func appendValue(buf []byte, key string, v any) ([]byte, error) {
	buf = appendStr(buf, key)
	switch x := v.(type) {
	case string:
		buf = append(buf, kindString)
		buf = appendStr(buf, x)
	case int64:
		buf = append(buf, kindInt)
		buf = appendI64(buf, x)
	case float64:
		buf = append(buf, kindFloat)
		buf = appendU64(buf, math.Float64bits(x))
	case bool:
		buf = append(buf, kindBool)
		buf = appendBool(buf, x)
	case time.Time:
		buf = append(buf, kindTime)
		lenOff := len(buf)
		buf = appendU32(buf, 0) // length, patched below
		var err error
		if buf, err = x.AppendBinary(buf); err != nil {
			return nil, fmt.Errorf("store: encoding time field %q: %w", key, err)
		}
		binary.LittleEndian.PutUint32(buf[lenOff:], uint32(len(buf)-lenOff-4))
	case []int64:
		buf = append(buf, kindIntList)
		buf = appendU32(buf, uint32(len(x)))
		for _, v := range x {
			buf = appendI64(buf, v)
		}
	case []string:
		buf = append(buf, kindStringList)
		buf = appendU32(buf, uint32(len(x)))
		for _, s := range x {
			buf = appendStr(buf, s)
		}
	default:
		return nil, fmt.Errorf("store: field %q has %T: %w", key, v, ErrBadValue)
	}
	return buf, nil
}

// walDecoder is a bounds-checked cursor over one frame payload. The first
// failure sticks: every later read returns a zero value, so a decoder
// checks err once, after its last read.
type walDecoder struct {
	b   []byte
	off int
	err error
}

var errWALDecode = fmt.Errorf("malformed wal payload")

func (d *walDecoder) fail() {
	if d.err == nil {
		d.err = errWALDecode
	}
}

// take returns the next n bytes, or nil once the decoder has failed.
func (d *walDecoder) take(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.b)-d.off {
		d.fail()
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// fixed reads an n-byte (n <= 8) little-endian unsigned integer.
func (d *walDecoder) fixed(n int) uint64 {
	var b [8]byte
	copy(b[:], d.take(n))
	return binary.LittleEndian.Uint64(b[:])
}

func (d *walDecoder) u8() byte { return byte(d.fixed(1)) }

func (d *walDecoder) u32() uint32 { return uint32(d.fixed(4)) }

func (d *walDecoder) u64() uint64 { return d.fixed(8) }

func (d *walDecoder) i64() int64 { return int64(d.u64()) }

func (d *walDecoder) bytes() []byte { return d.take(int(d.u32())) }

func (d *walDecoder) str() string { return string(d.bytes()) }

// boolean reads a u8 that must be 0 or 1.
func (d *walDecoder) boolean() bool {
	b := d.u8()
	if b > 1 {
		d.fail()
	}
	return b == 1
}

// count reads a u32 length and sanity-checks it against the bytes left:
// every counted element occupies at least min (> 0) bytes, so a count
// larger than remaining/min is corruption, not an allocation request.
func (d *walDecoder) count(min int) int {
	n := int(d.u32())
	if d.err != nil || n > (len(d.b)-d.off)/min {
		d.fail()
		return 0
	}
	return n
}

// done reports the decoder's error, counting unread bytes as one.
func (d *walDecoder) done() error {
	if d.err == nil && d.off != len(d.b) {
		d.err = fmt.Errorf("%w: %d trailing bytes", errWALDecode, len(d.b)-d.off)
	}
	return d.err
}

// walRecordSeq reads only the commit seq of a payload — its leading u64 —
// for callers that route checksummed frames without replaying them.
func walRecordSeq(payload []byte) (uint64, bool) {
	if len(payload) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(payload), true
}

// decodeWALRecord parses a payload produced by Tx.encodeWALPayload or the
// snapshot writer. Each write is validated in place and copied out as a
// Row — its bytes exactly as they sit in the payload, ready to install —
// so a K-row frame costs K row allocations plus a few for the frame.
func decodeWALRecord(payload []byte) (walRecord, error) {
	d := &walDecoder{b: payload}
	rec := walRecord{Seq: d.u64()}
	if n := d.count(20); n > 0 {
		rec.Tables = make([]walTableChange, n)
	}
	for i := range rec.Tables {
		tc := &rec.Tables[i]
		tc.Name = d.str()
		tc.NextID = d.i64()
		if n := d.count(8); n > 0 {
			tc.Deletes = make([]int64, n)
			for j := range tc.Deletes {
				tc.Deletes[j] = d.i64()
			}
		}
		if n := d.count(12); n > 0 {
			tc.Writes = make([]Row, n)
		}
		for j := range tc.Writes {
			start := d.off
			d.i64() // id
			var prev []byte
			for k, n := 0, d.count(5); k < n; k++ {
				key := d.field()
				if string(key) == IDField || (k > 0 && string(key) <= string(prev)) {
					d.fail()
				}
				prev = key
			}
			if d.err != nil {
				break
			}
			tc.Writes[j] = Row{string(d.b[start:d.off])}
		}
	}
	if err := d.done(); err != nil {
		return walRecord{}, fmt.Errorf("store: %w", err)
	}
	return rec, nil
}

// field validates one key and its typed value and returns the key.
func (d *walDecoder) field() []byte {
	key := d.bytes()
	switch d.u8() {
	case kindString:
		d.bytes()
	case kindInt, kindFloat:
		d.take(8)
	case kindBool:
		d.boolean()
	case kindTime:
		// Only the encoding the writer produces is accepted: a time that
		// would re-encode differently is not a payload we wrote.
		tb := d.bytes()
		var t time.Time
		var canon [16]byte
		if d.err != nil || t.UnmarshalBinary(tb) != nil {
			d.fail()
		} else if cb, err := t.AppendBinary(canon[:0]); err != nil || !bytes.Equal(cb, tb) {
			d.fail()
		}
	case kindIntList:
		d.take(8 * d.count(8))
	case kindStringList:
		for n := d.count(4); n > 0; n-- {
			d.bytes()
		}
	default:
		d.fail()
	}
	return key
}
