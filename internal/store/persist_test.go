package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// everyKind is a record holding one value of every supported field type.
func everyKind() Record {
	return Record{
		"name": "arabidopsis", "count": int64(42), "ratio": 0.5,
		"active": true, "created": time.Date(2010, 1, 2, 3, 4, 5, 0, time.UTC),
		"extracts": []int64{1, 2, 3}, "tags": []string{"plant", "light"},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := newTestStore(t, "sample", "extract")
	if err := s.CreateIndex("sample", "name", true); err != nil {
		t.Fatal(err)
	}
	when := everyKind().Time("created")
	mustInsert(t, s, "sample", everyKind())
	mustInsert(t, s, "extract", Record{"name": "leaf"})

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}

	s2 := New()
	if err := s2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := s2.Get("sample", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.String("name") != "arabidopsis" || r.Int("count") != 42 ||
		r.Float("ratio") != 0.5 || !r.Bool("active") ||
		!r.Time("created").Equal(when) {
		t.Errorf("scalar round trip failed: %v", r)
	}
	if len(r.IDs("extracts")) != 3 || len(r.Strings("tags")) != 2 {
		t.Errorf("slice round trip failed: %v", r)
	}
	// Unique index survives the round trip.
	err = s2.Update(func(tx *Tx) error {
		_, err := tx.Insert("sample", Record{"name": "arabidopsis"})
		return err
	})
	if !errors.Is(err, ErrUnique) {
		t.Errorf("unique index lost on load: %v", err)
	}
	// Serial IDs continue where they left off.
	id := mustInsert(t, s2, "sample", Record{"name": "fresh"})
	if id != 2 {
		t.Errorf("nextID after load = %d, want 2", id)
	}
}

func TestLoadRequiresEmptyStore(t *testing.T) {
	s := newTestStore(t, "sample")
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := newTestStore(t, "other")
	if err := s2.Load(&buf); err == nil {
		t.Fatal("Load into non-empty store succeeded")
	}
}

func TestLoadGarbage(t *testing.T) {
	s := New()
	if err := s.Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("Load of garbage succeeded")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.gob")
	s := newTestStore(t, "sample")
	mustInsert(t, s, "sample", Record{"name": "persisted"})
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if s2.Count("sample") != 1 {
		t.Error("file round trip lost data")
	}
}

// TestSnapshotWALRoundTrip extends the classic Save/Load round trip to
// the durable composition: typed values must survive snapshot + WAL
// replay, the commit sequence must carry across, and unique indexes must
// be rebuildable over the recovered rows.
func TestSnapshotWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DurabilityOptions{Sync: SyncOff, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("sample"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("sample", "name", true); err != nil {
		t.Fatal(err)
	}
	when := time.Date(2010, 1, 2, 3, 4, 5, 0, time.UTC)
	// First half of the history lands in the snapshot...
	mustInsert(t, s, "sample", Record{
		"name": "in-snapshot", "count": int64(7), "ratio": 1.5,
		"active": true, "created": when,
		"extracts": []int64{9}, "tags": []string{"a", "b"},
	})
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// ...the second half only in the WAL.
	mustInsert(t, s, "sample", Record{
		"name": "in-wal", "count": int64(8), "ratio": 2.5,
		"active": false, "created": when.AddDate(0, 1, 0),
		"extracts": []int64{1, 2}, "tags": []string{"c"},
	})
	seqAtClose := s.CommitSeq()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, DurabilityOptions{Sync: SyncOff, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.CommitSeq(); got != seqAtClose {
		t.Errorf("CommitSeq after recovery = %d, want %d", got, seqAtClose)
	}
	for id, want := range map[int64]string{1: "in-snapshot", 2: "in-wal"} {
		r, err := s2.Get("sample", id)
		if err != nil {
			t.Fatalf("row %d: %v", id, err)
		}
		if r.String("name") != want || r.Int("count") == 0 || r.Float("ratio") == 0 ||
			r.Time("created").IsZero() || len(r.IDs("extracts")) == 0 || len(r.Strings("tags")) == 0 {
			t.Errorf("typed fields lost on row %d: %v", id, r)
		}
	}
	// Snapshot carried the index; WAL replay maintained it.
	err = s2.Update(func(tx *Tx) error {
		_, err := tx.Insert("sample", Record{"name": "in-wal"})
		return err
	})
	if !errors.Is(err, ErrUnique) {
		t.Errorf("unique index after snapshot+WAL recovery: %v", err)
	}
}

func TestSaveEmptyStore(t *testing.T) {
	s := New()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if len(s2.Tables()) != 0 {
		t.Errorf("empty store round trip: %v", s2.Tables())
	}
}

// fenceSnapshot saves a store large enough that its snapshot holds a
// header frame and several row chunks per table, plus an empty table and
// a unique index.
func fenceSnapshot(t *testing.T) []byte {
	t.Helper()
	s := newTestStore(t, "empty", "extract", "sample")
	if err := s.CreateIndex("sample", "name", true); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 200)
	for table, n := range map[string]int{"extract": 300, "sample": 800} {
		if err := s.Update(func(tx *Tx) error {
			for i := 0; i < n; i++ {
				if _, err := tx.Insert(table, Record{"name": fmt.Sprintf("%s-%d", table, i), "pad": pad}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapshotFrames returns the offset of every frame in a snapshot,
// followed by the snapshot's length.
func snapshotFrames(snap []byte) []int {
	var offs []int
	for off := len(snapMagic); off < len(snap); off += walFrameHeaderSize + int(binary.LittleEndian.Uint32(snap[off:])) {
		offs = append(offs, off)
	}
	return append(offs, len(snap))
}

// reframe replaces frame i with edit(its payload) under a valid checksum,
// so only the snapshot reader's own rules can refuse the result.
func reframe(snap []byte, frames []int, i int, edit func([]byte) []byte) []byte {
	payload := edit(bytes.Clone(snap[frames[i]+walFrameHeaderSize : frames[i+1]]))
	frame := append(make([]byte, walFrameHeaderSize), payload...)
	putFrameHeader(frame, payload)
	return slices.Concat(snap[:frames[i]], frame, snap[frames[i+1]:])
}

// editChunk applies fn to a decoded row chunk and re-encodes it.
func editChunk(t *testing.T, fn func(*walRecord)) func([]byte) []byte {
	return func(payload []byte) []byte {
		rec, err := decodeWALRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		fn(&rec)
		out, err := encodeWALRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
}

// dirState captures everything a refused resync must leave alone: the
// version (via Save), the epoch, the WAL position and every file in the
// data directory.
func dirState(t *testing.T, s *Store, dir string) string {
	t.Helper()
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	wi, _ := s.WALInfo()
	state := fmt.Sprintf("seq=%d epoch=%d wal=%+v snap=%x", s.CommitSeq(), s.Epoch(), wi, snap.Bytes())
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		state += fmt.Sprintf(" %s=%x", e.Name(), b)
	}
	return state
}

// TestSnapshotCorruptionFence is the snapshot reader's detection matrix:
// every way a real snapshot can be cut, damaged or mistaken for another
// file must be refused with ErrCorrupt by all four readers — Load, Open,
// ResetFromSnapshot and InspectDir — and a refused resync must leave the
// store's version, epoch and WAL untouched. The cuts at frame boundaries
// pass every checksum; only the header's row counts catch them.
func TestSnapshotCorruptionFence(t *testing.T) {
	snap := fenceSnapshot(t)
	frames := snapshotFrames(snap)
	if n := len(frames) - 1; n < 6 {
		t.Fatalf("fence snapshot has %d frames; want a header and several chunks per table", n)
	}

	liveDir := t.TempDir()
	live, err := Open(liveDir, DurabilityOptions{Sync: SyncAlways, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	live.EnsureTable("sample")
	mustInsert(t, live, "sample", everyKind())

	// The intact snapshot passes all four readers, so each refusal below
	// is the damage's doing. The live store sits at the snapshot's epoch:
	// it would accept the resync if the reader did.
	t.Run("intact", func(t *testing.T) {
		if err := New().Load(bytes.NewReader(snap)); err != nil {
			t.Fatalf("Load: %v", err)
		}
		if _, err := New().ResetFromSnapshot(bytes.NewReader(snap)); err != nil {
			t.Fatalf("ResetFromSnapshot: %v", err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotFile), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := InspectDir(dir); err != nil {
			t.Fatalf("InspectDir: %v", err)
		}
		s, err := Open(dir, DurabilityOptions{SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		s.Close()
	})

	type fenceCase struct {
		name string
		data []byte
	}
	var cases []fenceCase
	for i, off := range frames[:len(frames)-1] {
		cases = append(cases, fenceCase{fmt.Sprintf("cut before frame %d", i), snap[:off]})
	}
	cases = append(cases, fenceCase{"cut mid-frame", snap[:frames[2]+walFrameHeaderSize+3]})
	for i := 0; i+1 < len(frames); i++ {
		data := bytes.Clone(snap)
		data[(frames[i]+walFrameHeaderSize+frames[i+1])/2] ^= 0x40
		cases = append(cases, fenceCase{fmt.Sprintf("byte flipped in frame %d", i), data})
	}
	// The first table of the header is "empty" (no rows, no chunks);
	// its row count sits after seq, epoch, the table count, its name and
	// its nextID.
	countOff := 8 + 8 + 4 + 4 + len("empty") + 8
	cases = append(cases,
		fenceCase{"header declares a row too many", reframe(snap, frames, 0, func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p[countOff:], 1)
			return p
		})},
		fenceCase{"chunk for an undeclared table", reframe(snap, frames, 1, editChunk(t, func(r *walRecord) {
			r.Tables[0].Name = "ghost"
		}))},
		fenceCase{"chunk at another seq", reframe(snap, frames, 1, editChunk(t, func(r *walRecord) {
			r.Seq++
		}))},
	)

	segDir := t.TempDir()
	seg, err := Open(segDir, DurabilityOptions{Sync: SyncOff, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	seg.EnsureTable("sample")
	mustInsert(t, seg, "sample", everyKind())
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listWALSegments(osFS{}, segDir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("wal segments: %v, %v", segs, err)
	}
	walBytes, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	gobBytes, err := os.ReadFile(filepath.Join("testdata", "snapshot-gob.bin"))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		fenceCase{"wal segment", walBytes},
		fenceCase{"gob snapshot from an earlier release", gobBytes},
		fenceCase{"empty input", nil},
	)

	before := dirState(t, live, liveDir)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := New().Load(bytes.NewReader(c.data)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Load = %v, want ErrCorrupt", err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, snapshotFile), c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if s, err := Open(dir, DurabilityOptions{SnapshotEvery: -1}); !errors.Is(err, ErrCorrupt) {
				if err == nil {
					s.Close()
				}
				t.Errorf("Open = %v, want ErrCorrupt", err)
			}
			if _, err := InspectDir(dir); !errors.Is(err, ErrCorrupt) {
				t.Errorf("InspectDir = %v, want ErrCorrupt", err)
			}
			if _, err := live.ResetFromSnapshot(bytes.NewReader(c.data)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("ResetFromSnapshot = %v, want ErrCorrupt", err)
			}
			if after := dirState(t, live, liveDir); after != before {
				t.Fatal("a refused ResetFromSnapshot changed the store's version, epoch or data directory")
			}
		})
	}
}

// FuzzReadSnapshot: the snapshot reader never panics, refuses only with
// ErrCorrupt, and accepts only streams the writer would produce for the
// state they decode to — an accepted input re-saves byte for byte.
func FuzzReadSnapshot(f *testing.F) {
	var empty bytes.Buffer
	if err := New().Save(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	s := newTestStore(f, "extract", "sample")
	if err := s.CreateIndex("sample", "name", true); err != nil {
		f.Fatal(err)
	}
	mustInsert(f, s, "sample", everyKind())
	mustInsert(f, s, "extract", Record{"name": "leaf"})
	var full bytes.Buffer
	if err := s.Save(&full); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		v, epoch, err := readSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal without ErrCorrupt: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if _, err := writeSnapshotVersion(v, epoch, &out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted snapshot re-saves differently:\n in  %x\n out %x", data, out.Bytes())
		}
	})
}
