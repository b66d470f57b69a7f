package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// randomRecord draws a record over every value kind, with the strings
// encoding/json treats specially (HTML metacharacters, control bytes,
// invalid UTF-8, U+2028/U+2029) and the floats whose notation switches.
func randomRecord(rng *rand.Rand) Record {
	pieces := []string{"a", "<", ">", "&", "\"", "\\", "\n", "\t", "\x01", "\x7f", "\xff", "é", "\u2028", "\u2029", "€", "id", " "}
	str := func() string {
		var b strings.Builder
		for n := rng.Intn(6); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e20, 1e21, 123.456, -2.5e-300, math.MaxFloat64, math.SmallestNonzeroFloat64}
	zones := []*time.Location{time.UTC, time.Local, time.FixedZone("", -5*3600), time.FixedZone("X", 5*3600+1800)}
	keys := []string{"a", "b", "created", "i", "id", "ids", "x", "zz", "<k>", "ü"}
	r := Record{}
	for n := rng.Intn(len(keys) + 1); n > 0; n-- {
		k := keys[rng.Intn(len(keys))]
		if k == IDField {
			continue
		}
		switch rng.Intn(8) {
		case 0:
			r[k] = str()
		case 1:
			r[k] = rng.Int63() - rng.Int63()
		case 2:
			if rng.Intn(2) == 0 {
				r[k] = floats[rng.Intn(len(floats))]
			} else {
				r[k] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
			}
		case 3:
			r[k] = rng.Intn(2) == 0
		case 4:
			r[k] = time.Unix(rng.Int63n(1<<34)-(1<<33), rng.Int63n(1e9)).In(zones[rng.Intn(len(zones))])
		case 5:
			l := make([]int64, rng.Intn(4))
			for i := range l {
				l[i] = rng.Int63() - rng.Int63()
			}
			r[k] = l
		case 6:
			l := make([]string, rng.Intn(4))
			for i := range l {
				l[i] = str()
			}
			r[k] = l
		default:
			r[k] = []string(nil)
		}
	}
	return r
}

// mustRow encodes r as the row with the given id, as Insert does.
func mustRow(t testing.TB, id int64, r Record) Row {
	t.Helper()
	b, err := appendRow(nil, id, r)
	if err != nil {
		t.Fatal(err)
	}
	return Row{string(b)}
}

// checkRowAgainstRecord asserts that every accessor of row, its JSON and
// its re-encoding agree with rec, the Record it decodes to.
func checkRowAgainstRecord(t *testing.T, row Row, rec Record) {
	t.Helper()
	if b, err := appendRow(nil, rec.ID(), rec); err != nil || string(b) != row.b {
		t.Fatalf("decoded record re-encodes differently (%v):\n row %x\n out %x", err, row.b, b)
	}
	want, wantErr := json.Marshal(rec)
	got, gotErr := row.MarshalJSON()
	if (wantErr != nil) != (gotErr != nil) || !bytes.Equal(got, want) {
		t.Fatalf("JSON of %#v:\n row     %s (%v)\n encoding/json %s (%v)", rec, got, gotErr, want, wantErr)
	}
	if wantErr == nil {
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(rec); err != nil {
			t.Fatal(err)
		}
		app, err := row.AppendJSON([]byte("prefix"))
		if err != nil || string(app) != "prefix"+strings.TrimSuffix(enc.String(), "\n") {
			t.Fatalf("AppendJSON = %s (%v), want prefix + %s", app, err, enc.String())
		}
	}
	if row.ID() != rec.ID() {
		t.Fatalf("ID %d, want %d", row.ID(), rec.ID())
	}
	n := 0
	row.Range(func(k string, v any) bool {
		n++
		if !sameValue(v, rec[k]) {
			t.Fatalf("Range %q = %#v, want %#v", k, v, rec[k])
		}
		return true
	})
	if n != len(rec)-1 {
		t.Fatalf("Range visited %d fields, record has %d besides the id", n, len(rec)-1)
	}
	for k, v := range rec {
		if got := row.Get(k); !sameValue(got, v) {
			t.Fatalf("Get(%q) = %#v, want %#v", k, got, v)
		}
		if row.String(k) != rec.String(k) || row.Int(k) != rec.Int(k) || row.Bool(k) != rec.Bool(k) ||
			!reflect.DeepEqual(row.IDs(k), rec.IDs(k)) || !reflect.DeepEqual(row.Strings(k), rec.Strings(k)) ||
			!row.Time(k).Equal(rec.Time(k)) {
			t.Fatalf("typed accessors of %q disagree with the record", k)
		}
		if f := row.Float(k); f != rec.Float(k) && !(math.IsNaN(f) && math.IsNaN(rec.Float(k))) {
			t.Fatalf("Float(%q) = %v, want %v", k, f, rec.Float(k))
		}
	}
	if got := row.Get("absent"); got != nil || row.String("absent") != "" || row.IDs("absent") != nil {
		t.Fatalf("absent field reads %#v", got)
	}
}

// sameValue is reflect.DeepEqual with floats compared by their bits, so a
// NaN equals itself.
func sameValue(a, b any) bool {
	if x, ok := a.(float64); ok {
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return reflect.DeepEqual(a, b)
}

// TestRowMatchesRecord is the quick-check behind the row's read surface:
// for random records written through Insert, every accessor, Range,
// Record, the re-encoding and — exactly, HTML escaping and all — the JSON
// agree with what the decoded Record gives, and the JSON with what
// encoding/json makes of the inserted record itself.
func TestRowMatchesRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := newTestStore(t, "t")
	for i := 0; i < 500; i++ {
		src := randomRecord(rng)
		id := mustInsert(t, s, "t", src)
		err := s.View(func(tx *Tx) error {
			row, err := tx.GetRef("t", id)
			if err != nil {
				return err
			}
			rec, err := tx.Get("t", id)
			if err != nil {
				return err
			}
			checkRowAgainstRecord(t, row, rec)
			// The map a map-backed store held for this insert: a copy
			// with the id added and nil lists made empty. Its JSON is
			// what the portal used to send.
			held := Record{IDField: id}
			for k, v := range src {
				switch x := v.(type) {
				case []string:
					v = append([]string{}, x...)
				case []int64:
					v = append([]int64{}, x...)
				}
				held[k] = v
			}
			want, wantErr := json.Marshal(held)
			got, err := row.MarshalJSON()
			if (wantErr != nil) != (err != nil) || !bytes.Equal(got, want) {
				t.Fatalf("JSON of inserted %#v:\n row %s (%v)\n map %s (%v)", held, got, err, want, wantErr)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRowJSONRefusesWhatEncodingJSONRefuses: non-finite floats and times
// RFC 3339 cannot carry fail with encoding/json's own errors.
func TestRowJSONRefusesWhatEncodingJSONRefuses(t *testing.T) {
	for _, v := range []any{math.NaN(), math.Inf(1), time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)} {
		rec := Record{IDField: int64(1), "v": v}
		_, want := json.Marshal(rec)
		_, got := mustRow(t, 1, rec).MarshalJSON()
		if want == nil || got == nil || !strings.Contains(got.Error(), strings.TrimPrefix(want.Error(), "json: ")[:10]) {
			t.Errorf("%v: row JSON error %v, encoding/json %v", v, got, want)
		}
	}
}

// The allocation fences: what the row form exists to make free stays free.

// TestDecodeFrameAllocs: decoding a K-row frame allocates one string per
// row plus a constant for the frame, not a map and a box per field.
func TestDecodeFrameAllocs(t *testing.T) {
	const k = 64
	tc := walTableChange{Name: "sample", NextID: k + 1}
	for id := int64(1); id <= k; id++ {
		tc.Writes = append(tc.Writes, mustRow(t, id, Record{
			"name": fmt.Sprintf("sample-%d", id), "project": id % 7, "ratio": 0.5, "ok": true,
			"created": time.Date(2010, 1, 2, 3, 4, 5, 0, time.UTC), "ids": []int64{id, id + 1}, "tags": []string{"x", "y"},
		}))
	}
	payload, err := encodeWALRecord(walRecord{Seq: 9, Tables: []walTableChange{tc}})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodeWALRecord(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > k+4 {
		t.Errorf("decoding a %d-row frame allocates %v times, want at most %d", k, allocs, k+4)
	}
}

// TestGetRefAccessorAllocs: a point read and scalar accessors allocate
// nothing.
func TestGetRefAccessorAllocs(t *testing.T) {
	s := newTestStore(t, "t")
	id := mustInsert(t, s, "t", Record{"name": "leaf", "n": int64(1234567), "at": time.Date(2010, 1, 2, 3, 4, 5, 0, time.UTC)})
	tx, err := s.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		r, err := tx.GetRef("t", id)
		if err != nil {
			t.Fatal(err)
		}
		sink += len(r.String("name")) + int(r.Int("n")) + r.Time("at").Day()
	})
	if allocs != 0 || sink == 0 {
		t.Errorf("GetRef + String/Int/Time allocates %v times, want 0", allocs)
	}
}

// TestRowJSONPageAllocs: appending a 50-row page of rows as JSON into a
// buffer with room allocates nothing.
func TestRowJSONPageAllocs(t *testing.T) {
	rows := make([]Row, 50)
	for i := range rows {
		rows[i] = mustRow(t, int64(i+1), Record{
			"name": fmt.Sprintf("<sample> %d", i), "project": int64(i), "concentration": 1.5e-7,
			"active": i%2 == 0, "created": time.Date(2010, 1, 2, 3, 4, 5, 6, time.UTC),
			"members": []int64{1, 2}, "tags": []string{"a&b"}, "empty": []string{},
		})
	}
	buf := make([]byte, 0, 64<<10)
	allocs := testing.AllocsPerRun(20, func() {
		b := buf[:0]
		for _, r := range rows {
			var err error
			if b, err = r.AppendJSON(b); err != nil {
				t.Fatal(err)
			}
			b = append(b, '\n')
		}
	})
	if allocs != 0 {
		t.Errorf("a 50-row JSON page allocates %v times, want 0", allocs)
	}
}

// FuzzRow: whatever row bytes the codec accepts read back consistently —
// every accessor, Range, Get and the JSON agree with the decoded Record,
// and the Record re-encodes to the same bytes.
func FuzzRow(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		f.Add([]byte(mustRow(f, int64(i+1), randomRecord(rng)).b))
	}
	f.Fuzz(func(t *testing.T, row []byte) {
		// Wrap the bytes as the one write of a one-table frame, so they
		// pass the same validation every stored row passes.
		p := appendU64(nil, 1)
		p = appendU32(p, 1)
		p = appendStr(p, "t")
		p = appendI64(p, 0)
		p = appendU32(p, 0)
		p = appendU32(p, 1)
		rec, err := decodeWALRecord(append(p, row...))
		if err != nil {
			return
		}
		r := rec.Tables[0].Writes[0]
		checkRowAgainstRecord(t, r, r.Record())
	})
}
