package store

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestWALCodecRoundTrip(t *testing.T) {
	when := time.Date(2010, 1, 2, 3, 4, 5, 6, time.UTC)
	src := Record{
		IDField: int64(5), "name": "arabidopsis", "count": int64(-12),
		"ratio": 0.25, "active": true, "created": when,
		"extracts": []int64{1, 2, 3}, "tags": []string{"a", ""},
	}
	rec := walRecord{
		Seq: 42,
		Tables: []walTableChange{
			{
				Name:    "sample",
				NextID:  17,
				Deletes: []int64{3, 9},
				Writes:  []Row{refRow(src)},
			},
			{Name: "empty-change", NextID: 99},
		},
	}
	payload, err := encodeWALRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeWALRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, got) {
		t.Errorf("round trip mismatch:\n in  %#v\n out %#v", rec, got)
	}
	if back := got.Tables[0].Writes[0].Record(); !reflect.DeepEqual(back, src) {
		t.Errorf("row decodes to\n %#v\nwant\n %#v", back, src)
	}
}

// TestWALEncoderEquivalence pins the commit hot path's direct overlay
// encoder to the struct-based reference encoder, byte for byte, for a
// transaction exercising inserts, rewrites and deletes across tables.
func TestWALEncoderEquivalence(t *testing.T) {
	s := newTestStore(t, "sample", "extract")
	mustInsert(t, s, "sample", Record{"name": "seedling", "n": int64(1)})
	mustInsert(t, s, "extract", Record{"name": "leaf"})

	err := s.Update(func(tx *Tx) error {
		if _, err := tx.Insert("sample", Record{
			"name": "new", "when": time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC),
			"ids": []int64{4, 5}, "tags": []string{"x"}, "ok": true, "score": 1.25,
		}); err != nil {
			return err
		}
		if err := tx.Put("sample", 1, Record{"name": "rewritten", "n": int64(2)}); err != nil {
			return err
		}
		if err := tx.Delete("extract", 1); err != nil {
			return err
		}

		direct, seq := tx.encodeWALPayload(tx.ver)
		rec, changed, err := tx.buildWALRecord()
		if err != nil {
			return err
		}
		if !changed || seq != rec.Seq {
			t.Fatalf("encoder disagreement: changed=%v seq=%d vs %d", changed, seq, rec.Seq)
		}
		reference, err := encodeWALRecord(rec)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(direct, reference) {
			t.Errorf("direct encoding diverges from reference:\n direct %x\n ref    %x", direct, reference)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuickWALCodec: random scalar payloads survive the codec, and no
// truncation of a valid payload decodes successfully.
func TestQuickWALCodec(t *testing.T) {
	f := func(seq uint64, name, sval string, ival int64, fval float64, bval bool, cut uint8) bool {
		rec := walRecord{
			Seq: seq,
			Tables: []walTableChange{{
				Name:   name,
				Writes: []Row{refRow(Record{IDField: ival, "s": sval, "i": ival, "f": fval, "b": bval})},
			}},
		}
		payload, err := encodeWALRecord(rec)
		if err != nil {
			return false
		}
		got, err := decodeWALRecord(payload)
		if err != nil || !reflect.DeepEqual(rec, got) {
			// NaN never compares equal; everything else must round-trip.
			return fval != fval
		}
		if got, ok := walRecordSeq(payload); !ok || got != seq {
			return false // the seq-only peek must agree with the full decode
		}
		if _, ok := walRecordSeq(payload[:7]); ok {
			return false
		}
		if n := int(cut) % len(payload); n > 0 {
			if _, err := decodeWALRecord(payload[:len(payload)-n]); err == nil {
				return false // truncated payload must not decode
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// encodeWALRecord is the test-only reference encoder: the struct-based
// counterpart of the production direct-overlay encoder
// (Tx.encodeWALPayload), with its own field encoder. Rows are decoded to
// Records and encoded afresh, so a row whose bytes are not what its
// values encode to shows up as a diff. It exists to pin the byte layout
// via TestWALEncoderEquivalence and to build arbitrary records for the
// codec round-trip tests.
func encodeWALRecord(rec walRecord) ([]byte, error) {
	buf := make([]byte, 0, 256)
	buf = appendU64(buf, rec.Seq)
	buf = appendU32(buf, uint32(len(rec.Tables)))
	for _, tc := range rec.Tables {
		buf = appendStr(buf, tc.Name)
		buf = appendI64(buf, tc.NextID)
		buf = appendU32(buf, uint32(len(tc.Deletes)))
		for _, id := range tc.Deletes {
			buf = appendI64(buf, id)
		}
		buf = appendU32(buf, uint32(len(tc.Writes)))
		for _, r := range tc.Writes {
			var err error
			if buf, err = appendRefRow(buf, r.Record()); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// appendRefRow encodes r, id taken from its IDField, with the reference
// field encoder.
func appendRefRow(buf []byte, r Record) ([]byte, error) {
	keys := make([]string, 0, len(r))
	for k := range r {
		if k != IDField {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	buf = appendI64(buf, r.ID())
	buf = appendU32(buf, uint32(len(keys)))
	for _, k := range keys {
		var err error
		if buf, err = appendField(buf, k, r[k]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// refRow is the Row the reference encoder makes of r.
func refRow(r Record) Row {
	b, err := appendRefRow(nil, r)
	if err != nil {
		panic(err)
	}
	return Row{string(b)}
}

func appendField(buf []byte, key string, v any) ([]byte, error) {
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
		if x {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case time.Time:
		tb, err := x.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("store: encoding time field %q: %w", key, err)
		}
		buf = append(buf, kindTime)
		buf = appendStr(buf, string(tb))
	case []int64:
		buf = append(buf, kindIntList)
		buf = appendU32(buf, uint32(len(x)))
		for _, v := range x {
			buf = appendI64(buf, v)
		}
	case []string:
		buf = append(buf, kindStringList)
		buf = appendU32(buf, uint32(len(x)))
		for _, v := range x {
			buf = appendStr(buf, v)
		}
	default:
		return nil, fmt.Errorf("store: field %q has %T: %w", key, v, ErrBadValue)
	}
	return buf, nil
}

// buildWALRecord flattens the transaction's pending overlay into a
// replayable record-set, in the exact order commit installs it
// (tables sorted by name; per table deletions then writes, by id).
// changed is false when the transaction touched nothing worth logging.
// The hot path uses encodeWALPayload instead; this structural form backs
// the codec tests.
func (tx *Tx) buildWALRecord() (walRecord, bool, error) {
	rec := walRecord{Seq: tx.ver.seq + 1}
	names := make([]string, 0, len(tx.pending))
	for name := range tx.pending {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o := tx.pending[name]
		t := tx.ver.tables[name]
		tc := walTableChange{Name: name}
		if t != nil && o.nextID > t.nextID {
			tc.NextID = o.nextID
		}
		for id := range o.deletes {
			tc.Deletes = append(tc.Deletes, id)
		}
		sort.Slice(tc.Deletes, func(i, j int) bool { return tc.Deletes[i] < tc.Deletes[j] })
		ids := make([]int64, 0, len(o.writes))
		for id := range o.writes {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			tc.Writes = append(tc.Writes, o.writes[id])
		}
		if tc.NextID != 0 || len(tc.Deletes) != 0 || len(tc.Writes) != 0 {
			rec.Tables = append(rec.Tables, tc)
		}
	}
	return rec, len(rec.Tables) != 0, nil
}

// FuzzDecodeWALRecord: the payload decoder never panics, and whatever it
// accepts re-encodes byte for byte — decoding is strict enough that one
// record has exactly one encoding. Seeded from the commit path's own
// encoder output, as shipped on the commit feed.
func FuzzDecodeWALRecord(f *testing.F) {
	s := newTestStore(f, "extract", "sample")
	sub, err := s.SubscribeCommits(0)
	if err != nil {
		f.Fatal(err)
	}
	mustInsert(f, s, "sample", Record{
		"name": "seedling", "n": int64(1), "ratio": 0.5, "ok": true,
		"when": time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC), "ids": []int64{4, 5}, "tags": []string{"x", ""},
	})
	mustInsert(f, s, "extract", Record{"name": "leaf"})
	if err := s.Update(func(tx *Tx) error {
		if err := tx.Put("sample", 1, Record{"name": "rewritten"}); err != nil {
			return err
		}
		return tx.Delete("extract", 1)
	}); err != nil {
		f.Fatal(err)
	}
	sub.Cancel()
	for fr := range sub.C {
		f.Add(fr.Payload)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return
		}
		out, err := encodeWALRecord(rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !reflect.DeepEqual(out, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", payload, out)
		}
	})
}
