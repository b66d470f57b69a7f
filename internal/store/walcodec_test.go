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
	rec := walRecord{
		Seq: 42,
		Tables: []walTableChange{
			{
				Name:    "sample",
				NextID:  17,
				Deletes: []int64{3, 9},
				Writes: []rowSnapshot{
					{ID: 5, Fields: []fieldSnapshot{
						{Key: "name", Kind: kindString, S: "arabidopsis"},
						{Key: "count", Kind: kindInt, I: -12},
						{Key: "ratio", Kind: kindFloat, F: 0.25},
						{Key: "active", Kind: kindBool, B: true},
						{Key: "created", Kind: kindTime, T: when},
						{Key: "extracts", Kind: kindIntList, LI: []int64{1, 2, 3}},
						{Key: "tags", Kind: kindStringList, LS: []string{"a", ""}},
					}},
				},
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

		direct, seq, err := tx.encodeWALPayload(tx.ver)
		if err != nil {
			return err
		}
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
				Name: name,
				Writes: []rowSnapshot{{ID: ival, Fields: []fieldSnapshot{
					{Key: "s", Kind: kindString, S: sval},
					{Key: "i", Kind: kindInt, I: ival},
					{Key: "f", Kind: kindFloat, F: fval},
					{Key: "b", Kind: kindBool, B: bval},
				}}},
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
// (Tx.encodeWALPayload). It exists to pin the byte layout via
// TestWALEncoderEquivalence and to build arbitrary records for the codec
// round-trip tests.
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
		for _, rs := range tc.Writes {
			buf = appendI64(buf, rs.ID)
			buf = appendU32(buf, uint32(len(rs.Fields)))
			for _, fs := range rs.Fields {
				var err error
				if buf, err = appendField(buf, fs); err != nil {
					return nil, err
				}
			}
		}
	}
	return buf, nil
}

func appendField(buf []byte, fs fieldSnapshot) ([]byte, error) {
	buf = appendStr(buf, fs.Key)
	buf = append(buf, fs.Kind)
	switch fs.Kind {
	case kindString:
		buf = appendStr(buf, fs.S)
	case kindInt:
		buf = appendI64(buf, fs.I)
	case kindFloat:
		buf = appendU64(buf, math.Float64bits(fs.F))
	case kindBool:
		if fs.B {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case kindTime:
		tb, err := fs.T.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("store: encoding time field %q: %w", fs.Key, err)
		}
		buf = appendBytes(buf, tb)
	case kindIntList:
		buf = appendU32(buf, uint32(len(fs.LI)))
		for _, v := range fs.LI {
			buf = appendI64(buf, v)
		}
	case kindStringList:
		buf = appendU32(buf, uint32(len(fs.LS)))
		for _, v := range fs.LS {
			buf = appendStr(buf, v)
		}
	default:
		return nil, fmt.Errorf("store: field %q has unknown kind %d: %w", fs.Key, fs.Kind, ErrBadValue)
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
			r := o.writes[id]
			rs := rowSnapshot{ID: id}
			keys := make([]string, 0, len(r))
			for k := range r {
				if k == IDField {
					continue
				}
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				f, err := encodeField(k, r[k])
				if err != nil {
					return walRecord{}, false, err
				}
				rs.Fields = append(rs.Fields, f)
			}
			tc.Writes = append(tc.Writes, rs)
		}
		if tc.NextID != 0 || len(tc.Deletes) != 0 || len(tc.Writes) != 0 {
			rec.Tables = append(rec.Tables, tc)
		}
	}
	return rec, len(rec.Tables) != 0, nil
}
