package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// openTestDir opens a durable store on dir with automatic snapshots off,
// so tests control the snapshot/truncate lifecycle explicitly.
func openTestDir(t *testing.T, dir string, policy SyncPolicy) *Store {
	t.Helper()
	s, err := Open(dir, DurabilityOptions{Sync: policy, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// crash simulates a hard kill: the WAL goroutines stop and the segment
// file is closed without the final fsync of a clean Close. Everything an
// append flushed to the OS survives, exactly as with a real kill -9.
func crash(t *testing.T, s *Store) {
	t.Helper()
	s.writeMu.Lock()
	s.closed.Store(true)
	s.writeMu.Unlock()
	if s.snapStop != nil {
		close(s.snapStop)
		<-s.snapDone
	}
	w := s.wal
	w.mu.Lock()
	w.closing = true
	if w.f != nil {
		w.f.Close() // no flush beyond what append already did
		w.f = nil
	}
	w.mu.Unlock()
	close(w.stop)
	<-w.done
	w.syncMu.Lock()
	w.stopped = true
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
	if s.dirLock != nil {
		s.dirLock.Close() // a dead process would have dropped its flock
	}
}

// commitN inserts n sequentially named records, one commit each.
func commitN(t *testing.T, s *Store, table string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Update(func(tx *Tx) error {
			_, err := tx.Insert(table, Record{"name": fmt.Sprintf("rec-%04d", i), "n": int64(i)})
			return err
		}); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
}

// lastSegment returns the path of the highest-base WAL segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listWALSegments(osFS{}, dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listWALSegments: %v (%d segments)", err, len(segs))
	}
	return segs[len(segs)-1].path
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTestDir(t, dir, SyncAlways)
	if !s.Durable() {
		t.Fatal("Open returned a non-durable store")
	}
	if err := s.CreateTable("sample"); err != nil {
		t.Fatal(err)
	}
	when := time.Date(2010, 1, 2, 3, 4, 5, 0, time.UTC)
	mustInsert(t, s, "sample", Record{
		"name": "arabidopsis", "count": int64(42), "ratio": 0.5,
		"active": true, "created": when,
		"extracts": []int64{1, 2, 3}, "tags": []string{"plant", "light"},
	})
	mustInsert(t, s, "sample", Record{"name": "doomed"})
	if err := s.Update(func(tx *Tx) error { return tx.Delete("sample", 2) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openTestDir(t, dir, SyncAlways)
	defer s2.Close()
	if n := s2.Count("sample"); n != 1 {
		t.Fatalf("recovered %d rows, want 1", n)
	}
	r, err := s2.Get("sample", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.String("name") != "arabidopsis" || r.Int("count") != 42 ||
		r.Float("ratio") != 0.5 || !r.Bool("active") || !r.Time("created").Equal(when) ||
		len(r.IDs("extracts")) != 3 || len(r.Strings("tags")) != 2 {
		t.Errorf("typed round trip through WAL failed: %v", r)
	}
	// Serial ids continue past the deleted record.
	id := mustInsert(t, s2, "sample", Record{"name": "fresh"})
	if id != 3 {
		t.Errorf("nextID after recovery = %d, want 3", id)
	}
}

// TestNoOpUpdateKeepsSequenceContiguous: a transaction that changes
// nothing logs nothing, so it must not advance the commit sequence — a
// silent gap would make recovery refuse the directory forever.
func TestNoOpUpdateKeepsSequenceContiguous(t *testing.T) {
	dir := t.TempDir()
	s := openTestDir(t, dir, SyncOff)
	if err := s.CreateTable("sample"); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, s, "sample", Record{"name": "one"})
	if err := s.Update(func(tx *Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// A read-only Update is a no-op too.
	if err := s.Update(func(tx *Tx) error {
		_, err := tx.Get("sample", 1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.CommitSeq(); got != 1 {
		t.Errorf("CommitSeq after no-op updates = %d, want 1", got)
	}
	mustInsert(t, s, "sample", Record{"name": "two"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestDir(t, dir, SyncOff)
	defer s2.Close()
	if n := s2.Count("sample"); n != 2 {
		t.Fatalf("recovered %d rows across no-op commits, want 2", n)
	}
}

func TestRecoveryWithoutClose(t *testing.T) {
	dir := t.TempDir()
	s := openTestDir(t, dir, SyncAlways)
	if err := s.CreateTable("sample"); err != nil {
		t.Fatal(err)
	}
	commitN(t, s, "sample", 25)
	crash(t, s)

	s2 := openTestDir(t, dir, SyncAlways)
	defer s2.Close()
	if n := s2.Count("sample"); n != 25 {
		t.Fatalf("recovered %d rows after crash, want 25", n)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openTestDir(t, dir, SyncOff)
	if err := s.CreateTable("sample"); err != nil {
		t.Fatal(err)
	}
	commitN(t, s, "sample", 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Chop a few bytes off the last frame: the classic torn append.
	seg := lastSegment(t, dir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := openTestDir(t, dir, SyncOff)
	if n := s2.Count("sample"); n != 9 {
		t.Fatalf("recovered %d rows from torn log, want the 9-commit prefix", n)
	}
	// The log stays appendable after the repair, and the torn-off id is
	// handed out again.
	id := mustInsert(t, s2, "sample", Record{"name": "replacement"})
	if id != 10 {
		t.Errorf("id after torn-tail repair = %d, want 10", id)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openTestDir(t, dir, SyncOff)
	defer s3.Close()
	if n := s3.Count("sample"); n != 10 {
		t.Fatalf("post-repair commits lost: %d rows, want 10", n)
	}
}

// TestHugeFrameClaimIsTornTail: a final frame header that claims 1 GiB
// over a few MiB of data is cut as a torn tail, and reading it allocates
// in proportion to the bytes present, not to the claim.
func TestHugeFrameClaimIsTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openTestDir(t, dir, SyncOff)
	if err := s.CreateTable("sample"); err != nil {
		t.Fatal(err)
	}
	commitN(t, s, "sample", 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	good, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	const present = 3 << 20
	data := append([]byte(nil), good...)
	data = binary.LittleEndian.AppendUint32(data, 1<<30) // length
	data = binary.LittleEndian.AppendUint32(data, 0)     // checksum
	data = append(data, bytes.Repeat([]byte{0xA5}, present)...)
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fr, err := newWALFrameReader(bytes.NewReader(data), walMagic)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for {
		if _, err = fr.next(); err != nil {
			break
		}
		frames++
	}
	runtime.ReadMemStats(&after)
	var tfe *tornFrameError
	if !errors.As(err, &tfe) || tfe.off != int64(len(good)) || frames != 3 {
		t.Fatalf("after %d frames: err %v, want a torn frame at offset %d after 3", frames, err, len(good))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4*present {
		t.Errorf("reading the claimed frame allocated %d bytes over %d present", alloc, present)
	}

	s2 := openTestDir(t, dir, SyncOff)
	defer s2.Close()
	if n := s2.Count("sample"); n != 3 {
		t.Fatalf("recovered %d rows, want the 3 before the claimed frame", n)
	}
	if info, err := os.Stat(seg); err != nil || info.Size() != int64(len(good)) {
		t.Fatalf("segment after recovery: %v, size %d, want cut to %d", err, info.Size(), len(good))
	}
}

func TestCorruptTailDropped(t *testing.T) {
	dir := t.TempDir()
	s := openTestDir(t, dir, SyncOff)
	if err := s.CreateTable("sample"); err != nil {
		t.Fatal(err)
	}
	commitN(t, s, "sample", 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the last frame's payload: checksum mismatch.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-4] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestDir(t, dir, SyncOff)
	defer s2.Close()
	if n := s2.Count("sample"); n != 4 {
		t.Fatalf("recovered %d rows past a corrupt tail, want 4", n)
	}
}

func TestCorruptMiddleSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	s := openTestDir(t, dir, SyncOff)
	if err := s.CreateTable("sample"); err != nil {
		t.Fatal(err)
	}
	commitN(t, s, "sample", 5)
	// Force a rotation that retires the current segment without making it
	// collectable (no snapshot covers it).
	if err := s.wal.truncateTo(0); err != nil {
		t.Fatal(err)
	}
	commitN(t, s, "sample", 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listWALSegments(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected >=2 segments after rotation, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-4] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Valid committed records exist beyond the damage, so recovery must
	// refuse rather than silently drop the middle of the history.
	if _, err := Open(dir, DurabilityOptions{SnapshotEvery: -1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over mid-history corruption = %v, want ErrCorrupt", err)
	}
}

// TestCorruptHeaderRefused: a full-size segment whose magic header is
// damaged may hold acknowledged commits behind it — recovery must refuse,
// not wipe it. A sub-header stub (a segment created right at a crash) is
// reset and reused.
func TestCorruptHeaderRefused(t *testing.T) {
	dir := t.TempDir()
	s := openTestDir(t, dir, SyncOff)
	if err := s.CreateTable("sample"); err != nil {
		t.Fatal(err)
	}
	commitN(t, s, "sample", 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, DurabilityOptions{SnapshotEvery: -1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over damaged header = %v, want ErrCorrupt", err)
	}

	// A bare stub shorter than the magic is repaired, not refused.
	dir2 := t.TempDir()
	if err := os.WriteFile(walSegmentPath(dir2, 1), []byte("BFW"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir2, DurabilityOptions{Sync: SyncOff, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("Open over header stub: %v", err)
	}
	defer s2.Close()
	if err := s2.CreateTable("sample"); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, s2, "sample", Record{"name": "works"})
}

func TestSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s := openTestDir(t, dir, SyncOff)
	if err := s.CreateTable("sample"); err != nil {
		t.Fatal(err)
	}
	commitN(t, s, "sample", 20)
	before, _ := s.WALInfo()
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	after, ok := s.WALInfo()
	if !ok {
		t.Fatal("WALInfo on durable store")
	}
	if after.Bytes >= before.Bytes {
		t.Errorf("snapshot did not shrink the WAL: %d -> %d bytes", before.Bytes, after.Bytes)
	}
	if after.Segments != 1 {
		t.Errorf("segments after truncation = %d, want 1", after.Segments)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
	// Commits after the snapshot land in the fresh segment and recovery
	// composes snapshot + WAL.
	commitN(t, s, "sample", 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTestDir(t, dir, SyncOff)
	defer s2.Close()
	if n := s2.Count("sample"); n != 25 {
		t.Fatalf("snapshot+WAL recovery: %d rows, want 25", n)
	}
}

func TestAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DurabilityOptions{Sync: SyncOff, SnapshotEvery: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.CreateTable("sample"); err != nil {
		t.Fatal(err)
	}
	commitN(t, s, "sample", 50) // well past 2 KiB of WAL
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background snapshot never happened")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	s := openTestDir(t, dir, SyncAlways)
	if err := s.CreateTable("sample"); err != nil {
		t.Fatal(err)
	}
	const goroutines, each = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := s.Update(func(tx *Tx) error {
					_, err := tx.Insert("sample", Record{"name": fmt.Sprintf("g%d-%d", g, i)})
					return err
				}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	info, _ := s.WALInfo()
	if info.LastSeq != goroutines*each {
		t.Errorf("LastSeq = %d, want %d", info.LastSeq, goroutines*each)
	}
	if info.SyncedSeq != info.LastSeq {
		t.Errorf("SyncedSeq = %d lagging LastSeq %d under SyncAlways", info.SyncedSeq, info.LastSeq)
	}
	crash(t, s)
	s2 := openTestDir(t, dir, SyncAlways)
	defer s2.Close()
	if n := s2.Count("sample"); n != goroutines*each {
		t.Fatalf("recovered %d rows, want %d", n, goroutines*each)
	}
}

func TestIndexRebuildAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTestDir(t, dir, SyncOff)
	if err := s.CreateTable("sample"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("sample", "name", true); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, s, "sample", Record{"name": "unique-one"})
	mustInsert(t, s, "sample", Record{"name": "unique-two"})
	crash(t, s)

	// Data is recovered; schema is the caller's to re-register, exactly
	// as the core wiring does on startup.
	s2 := openTestDir(t, dir, SyncOff)
	defer s2.Close()
	if err := s2.CreateIndex("sample", "name", true); err != nil {
		t.Fatalf("index rebuild over recovered rows: %v", err)
	}
	err := s2.Update(func(tx *Tx) error {
		_, err := tx.Insert("sample", Record{"name": "unique-one"})
		return err
	})
	if !errors.Is(err, ErrUnique) {
		t.Errorf("unique constraint after rebuild: %v", err)
	}
	var ids []int64
	err2 := s2.View(func(tx *Tx) (err error) {
		ids, err = lookupIDs(tx, "sample", "name", "unique-two")
		return err
	})
	if err2 != nil || len(ids) != 1 || ids[0] != 2 {
		t.Errorf("rebuilt index lookup = %v, %v", ids, err2)
	}
}

func TestWALInspectDir(t *testing.T) {
	dir := t.TempDir()
	s := openTestDir(t, dir, SyncOff)
	if err := s.CreateTable("sample"); err != nil {
		t.Fatal(err)
	}
	commitN(t, s, "sample", 7)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	commitN(t, s, "sample", 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !info.HasSnapshot || info.SnapshotSeq != 7 {
		t.Errorf("snapshot info = has=%v seq=%d, want seq 7", info.HasSnapshot, info.SnapshotSeq)
	}
	if info.LastSeq != 10 {
		t.Errorf("LastSeq = %d, want 10", info.LastSeq)
	}
	var records int
	for _, seg := range info.Segments {
		records += seg.Records
		if seg.Torn {
			t.Errorf("segment %s reported torn", seg.Path)
		}
	}
	if records != 3 {
		t.Errorf("WAL records after truncation = %d, want 3", records)
	}
	if info.Damaged {
		t.Error("healthy directory reported damaged")
	}
}

// TestInspectDirDetectsGap: a missing mid-history segment must be
// reported as damage, not as a healthy directory — recovery will refuse
// it with a sequence gap.
func TestInspectDirDetectsGap(t *testing.T) {
	dir := t.TempDir()
	s := openTestDir(t, dir, SyncOff)
	if err := s.CreateTable("sample"); err != nil {
		t.Fatal(err)
	}
	commitN(t, s, "sample", 4)
	if err := s.wal.truncateTo(0); err != nil { // rotate, retaining the old segment
		t.Fatal(err)
	}
	commitN(t, s, "sample", 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listWALSegments(osFS{}, dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >=2 segments, got %d (%v)", len(segs), err)
	}
	if err := os.Remove(segs[0].path); err != nil {
		t.Fatal(err)
	}
	info, err := InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Damaged {
		t.Error("missing mid-history segment not reported as damage")
	}
	if info.LastSeq != 0 {
		t.Errorf("LastSeq over a gap = %d, want 0 (nothing recoverable)", info.LastSeq)
	}
	if _, err := Open(dir, DurabilityOptions{SnapshotEvery: -1}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open over a gap = %v, want ErrCorrupt", err)
	}
}

func TestSyncPolicyParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"INTERVAL", SyncInterval}, {" off ", SyncOff}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() == "" {
			t.Errorf("empty String() for %v", got)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}
}

// TestUniqueSwapCommitAndReplay: a transaction that rotates a unique
// value across rows (a shape checkUnique deliberately permits once the
// old holder is pending-rewritten) must commit — the two-phase index
// install may not trip on the transient collision — and must replay
// identically from the WAL.
func TestUniqueSwapCommitAndReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTestDir(t, dir, SyncOff)
	if err := s.CreateTable("u"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("u", "name", true); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, s, "u", Record{"name": "a"})
	mustInsert(t, s, "u", Record{"name": "b"})
	// Snapshot now, so the reopened store carries the unique index and
	// the swap replays against it — the worst case for the install order.
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	err := s.Update(func(tx *Tx) error {
		if err := tx.Put("u", 1, Record{"name": "c"}); err != nil {
			return err
		}
		if err := tx.Put("u", 2, Record{"name": "a"}); err != nil {
			return err
		}
		return tx.Put("u", 1, Record{"name": "b"})
	})
	if err != nil {
		t.Fatalf("unique swap rejected at commit: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestDir(t, dir, SyncOff)
	defer s2.Close()
	// The snapshot carried the index; re-registration is idempotent.
	if err := s2.CreateIndex("u", "name", true); err != nil && !errors.Is(err, ErrExists) {
		t.Fatalf("index re-registration after swap replay: %v", err)
	}
	r1, _ := s2.Get("u", 1)
	r2, _ := s2.Get("u", 2)
	if r1.String("name") != "b" || r2.String("name") != "a" {
		t.Fatalf("replayed swap: 1=%q 2=%q, want b/a", r1.String("name"), r2.String("name"))
	}
}

// TestDataDirLock: a data directory can be open in at most one store at
// a time; closing releases the lock. (Same-process flocks on separate
// descriptors conflict just like cross-process ones.)
func TestDataDirLock(t *testing.T) {
	dir := t.TempDir()
	s := openTestDir(t, dir, SyncOff)
	if s.dirLock == nil {
		t.Skip("no directory locking on this platform")
	}
	if _, err := Open(dir, DurabilityOptions{SnapshotEvery: -1}); err == nil {
		t.Fatal("second Open of a live data directory succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTestDir(t, dir, SyncOff)
	s2.Close()
}

func TestSnapshotOnVolatileStoreFails(t *testing.T) {
	if err := New().Snapshot(); err == nil {
		t.Error("Snapshot on in-memory store succeeded")
	}
}

func TestClosedDurableStoreRejectsWrites(t *testing.T) {
	dir := t.TempDir()
	s := openTestDir(t, dir, SyncOff)
	if err := s.CreateTable("sample"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	err := s.Update(func(tx *Tx) error { return nil })
	if !errors.Is(err, ErrClosed) {
		t.Errorf("Update after Close = %v, want ErrClosed", err)
	}
}
