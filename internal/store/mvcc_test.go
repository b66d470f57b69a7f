package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotReadersSeeExactlyOneVersion pins the MVCC contract under
// write load; run with -race. A writer commits generations: every commit
// rewrites all rows with the same "gen" value, so any state mixing two
// generations can only come from a reader straddling versions. Paginated
// readers walk the table in small ScanRange pages inside one transaction
// and must observe a single generation across all pages, plus a stable
// Snapshot() sequence.
func TestSnapshotReadersSeeExactlyOneVersion(t *testing.T) {
	s := newTestStore(t, "t")
	const rows = 40
	if err := s.Update(func(tx *Tx) error {
		for i := 0; i < rows; i++ {
			if _, err := tx.Insert("t", Record{"gen": int64(0), "row": int64(i)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	const generations = 60
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		for g := int64(1); g <= generations; g++ {
			err := s.Update(func(tx *Tx) error {
				rows, err := tx.Query(Query{Table: "t"})
				if err != nil {
					return err
				}
				recs, err := rows.Collect() // drained before the first Put
				if err != nil {
					return err
				}
				for _, r := range recs {
					if err := tx.Put("t", r.ID(), Record{"gen": g, "row": r.Int("row")}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("writer gen %d: %v", g, err)
				return
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !writerDone.Load() {
				tx, err := s.Begin(true)
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				pin := tx.Snapshot()
				gen := int64(-1)
				seen := 0
				// Paginate in pages of 7: the whole multi-call walk must
				// read the one pinned version.
				for cursor := int64(0); ; {
					n := 0
					rows, err := tx.Query(Query{Table: "t", Cursor: cursor, Limit: 7})
					if err != nil {
						t.Errorf("query: %v", err)
						return
					}
					for rows.Next() {
						r := rows.Record()
						if gen == -1 {
							gen = r.Int("gen")
						} else if g := r.Int("gen"); g != gen {
							t.Errorf("reader saw generations %d and %d in one snapshot", gen, g)
							break
						}
						seen++
						cursor = rows.ID()
						n++
					}
					if err := rows.Err(); err != nil {
						t.Errorf("scan: %v", err)
						return
					}
					if got := tx.Snapshot(); got != pin {
						t.Errorf("snapshot moved mid-transaction: %d -> %d", pin, got)
					}
					if n < 7 {
						break
					}
				}
				if seen != rows {
					t.Errorf("reader saw %d rows, want %d", seen, rows)
				}
				tx.Rollback()
			}
		}()
	}
	wg.Wait()
}

// TestBeginCommitPublishes covers the basic optimistic transaction life
// cycle: writes are invisible until Commit, visible after, and Rollback
// discards them.
func TestBeginCommitPublishes(t *testing.T) {
	s := newTestStore(t, "t")
	tx, err := s.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	id, err := tx.Insert("t", Record{"name": "draft"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Count("t") != 0 {
		t.Fatalf("uncommitted write visible: count=%d", s.Count("t"))
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if got, err := s.Get("t", id); err != nil || got.String("name") != "draft" {
		t.Fatalf("after commit: %v %v", got, err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("second commit = %v, want ErrTxDone", err)
	}

	tx2, _ := s.Begin(false)
	if _, err := tx2.Insert("t", Record{"name": "doomed"}); err != nil {
		t.Fatal(err)
	}
	tx2.Rollback()
	if s.Count("t") != 1 {
		t.Fatalf("rollback leaked: count=%d", s.Count("t"))
	}

	ro, _ := s.Begin(true)
	if _, err := ro.Insert("t", Record{}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("insert on read-only tx = %v, want ErrReadOnly", err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatalf("read-only commit: %v", err)
	}

	// Calling Commit on an Update-path transaction would self-deadlock on
	// the writer mutex; it must be rejected instead.
	if err := s.Update(func(tx *Tx) error {
		if err := tx.Commit(); err == nil {
			t.Error("Commit inside Update succeeded, want error")
		}
		_, err := tx.Insert("t", Record{"name": "via-update"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if s.Count("t") != 2 {
		t.Fatalf("count = %d, want 2", s.Count("t"))
	}
}

// TestFirstCommitterWins exercises every conflict shape of optimistic
// validation: rewrite/rewrite, delete/rewrite, rewrite/delete, serial-id
// claims, and the disjoint non-conflict case.
func TestFirstCommitterWins(t *testing.T) {
	newPair := func(t *testing.T) (*Store, int64, int64) {
		s := newTestStore(t, "t")
		var a, b int64
		err := s.Update(func(tx *Tx) error {
			var err error
			if a, err = tx.Insert("t", Record{"v": int64(1)}); err != nil {
				return err
			}
			b, err = tx.Insert("t", Record{"v": int64(2)})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, a, b
	}

	t.Run("rewrite-rewrite", func(t *testing.T) {
		s, a, _ := newPair(t)
		tx1, _ := s.Begin(false)
		tx2, _ := s.Begin(false)
		if err := tx1.Put("t", a, Record{"v": int64(10)}); err != nil {
			t.Fatal(err)
		}
		if err := tx2.Put("t", a, Record{"v": int64(20)}); err != nil {
			t.Fatal(err)
		}
		if err := tx1.Commit(); err != nil {
			t.Fatalf("first committer: %v", err)
		}
		if err := tx2.Commit(); !errors.Is(err, ErrConflict) {
			t.Fatalf("second committer = %v, want ErrConflict", err)
		}
		if r, _ := s.Get("t", a); r.Int("v") != 10 {
			t.Fatalf("v = %d, want first committer's 10", r.Int("v"))
		}
	})

	t.Run("delete-vs-rewrite", func(t *testing.T) {
		s, a, _ := newPair(t)
		tx1, _ := s.Begin(false)
		tx2, _ := s.Begin(false)
		if err := tx1.Delete("t", a); err != nil {
			t.Fatal(err)
		}
		if err := tx2.Put("t", a, Record{"v": int64(20)}); err != nil {
			t.Fatal(err)
		}
		if err := tx1.Commit(); err != nil {
			t.Fatal(err)
		}
		// The tombstone carries the deleting commit's stamp, so the
		// rewrite of a concurrently deleted row must conflict rather
		// than resurrect it.
		if err := tx2.Commit(); !errors.Is(err, ErrConflict) {
			t.Fatalf("rewrite of deleted row = %v, want ErrConflict", err)
		}
		if _, err := s.Get("t", a); !errors.Is(err, ErrNotFound) {
			t.Fatalf("row resurrected: %v", err)
		}
	})

	t.Run("rewrite-vs-delete", func(t *testing.T) {
		s, a, _ := newPair(t)
		tx1, _ := s.Begin(false)
		tx2, _ := s.Begin(false)
		if err := tx1.Put("t", a, Record{"v": int64(10)}); err != nil {
			t.Fatal(err)
		}
		if err := tx2.Delete("t", a); err != nil {
			t.Fatal(err)
		}
		if err := tx1.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := tx2.Commit(); !errors.Is(err, ErrConflict) {
			t.Fatalf("delete of rewritten row = %v, want ErrConflict", err)
		}
	})

	t.Run("insert-id-claim", func(t *testing.T) {
		s, _, _ := newPair(t)
		tx1, _ := s.Begin(false)
		tx2, _ := s.Begin(false)
		id1, err := tx1.Insert("t", Record{"v": int64(30)})
		if err != nil {
			t.Fatal(err)
		}
		id2, err := tx2.Insert("t", Record{"v": int64(40)})
		if err != nil {
			t.Fatal(err)
		}
		if id1 != id2 {
			t.Fatalf("both txs should claim the same serial id: %d vs %d", id1, id2)
		}
		if err := tx1.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := tx2.Commit(); !errors.Is(err, ErrConflict) {
			t.Fatalf("second insert = %v, want ErrConflict", err)
		}
		if r, _ := s.Get("t", id1); r.Int("v") != 30 {
			t.Fatalf("v = %d, want first committer's 30", r.Int("v"))
		}
	})

	t.Run("update-beats-optimistic", func(t *testing.T) {
		s, a, _ := newPair(t)
		tx, _ := s.Begin(false)
		if err := tx.Put("t", a, Record{"v": int64(10)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Update(func(utx *Tx) error {
			return utx.Put("t", a, Record{"v": int64(99)})
		}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); !errors.Is(err, ErrConflict) {
			t.Fatalf("optimistic commit after Update = %v, want ErrConflict", err)
		}
	})

	t.Run("disjoint-rows-both-commit", func(t *testing.T) {
		s, a, b := newPair(t)
		tx1, _ := s.Begin(false)
		tx2, _ := s.Begin(false)
		if err := tx1.Put("t", a, Record{"v": int64(10)}); err != nil {
			t.Fatal(err)
		}
		if err := tx2.Put("t", b, Record{"v": int64(20)}); err != nil {
			t.Fatal(err)
		}
		if err := tx1.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := tx2.Commit(); err != nil {
			t.Fatalf("disjoint write sets must not conflict: %v", err)
		}
		ra, _ := s.Get("t", a)
		rb, _ := s.Get("t", b)
		if ra.Int("v") != 10 || rb.Int("v") != 20 {
			t.Fatalf("got %d/%d, want 10/20", ra.Int("v"), rb.Int("v"))
		}
	})
}

// TestCommitTimeUniqueRecheck: write-time unique checks only see the
// transaction's snapshot, so Commit must re-validate against the head —
// otherwise two racing transactions could install a duplicate.
func TestCommitTimeUniqueRecheck(t *testing.T) {
	s := newTestStore(t, "t")
	if err := s.CreateIndex("t", "login", true); err != nil {
		t.Fatal(err)
	}
	var a, b int64
	if err := s.Update(func(tx *Tx) error {
		var err error
		if a, err = tx.Insert("t", Record{"login": "alice"}); err != nil {
			return err
		}
		b, err = tx.Insert("t", Record{"login": "bob"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tx1, _ := s.Begin(false)
	tx2, _ := s.Begin(false)
	if err := tx1.Put("t", a, Record{"login": "carol"}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Put("t", b, Record{"login": "carol"}); err != nil {
		t.Fatal(err) // write-time check passes: snapshot has no carol
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); !errors.Is(err, ErrUnique) {
		t.Fatalf("duplicate unique value = %v, want ErrUnique", err)
	}
	ids, err := func() ([]int64, error) {
		tx, _ := s.Begin(true)
		defer tx.Rollback()
		return lookupIDs(tx, "t", "login", "carol")
	}()
	if err != nil || len(ids) != 1 {
		t.Fatalf("carol holders = %v (%v), want exactly one", ids, err)
	}
}

// TestOptimisticRetryLoopLosesNoUpdates proves first-committer-wins plus
// retry is a lost-update-free increment: concurrent optimistic
// transactions hammer one counter and every increment lands. The retry
// loop itself is WithRetry — the shared helper every production call
// site uses instead of hand-rolling this pattern.
func TestOptimisticRetryLoopLosesNoUpdates(t *testing.T) {
	s := newTestStore(t, "t")
	var id int64
	if err := s.Update(func(tx *Tx) error {
		var err error
		id, err = tx.Insert("t", Record{"n": int64(0)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				err := WithRetry(context.Background(), s, func(tx *Tx) error {
					r, err := tx.GetRef("t", id)
					if err != nil {
						return err
					}
					return tx.Put("t", id, Record{"n": r.Int("n") + 1})
				})
				if err != nil {
					t.Errorf("increment: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	r, err := s.Get("t", id)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Int("n"); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d (updates lost)", got, workers*perWorker)
	}
}

// TestBarrierWaitsForInFlightWriter pins the Barrier contract: it must not
// return while an Update that began before the call is still open, and
// after it returns a new read transaction sees that Update's commit.
func TestBarrierWaitsForInFlightWriter(t *testing.T) {
	s := newTestStore(t, "t")
	inTx := make(chan struct{})
	releaseTx := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		_ = s.Update(func(tx *Tx) error {
			_, err := tx.Insert("t", Record{"name": "pending"})
			close(inTx)
			<-releaseTx
			return err
		})
	}()
	<-inTx
	barrierDone := make(chan struct{})
	go func() {
		s.Barrier()
		close(barrierDone)
	}()
	select {
	case <-barrierDone:
		t.Fatal("Barrier returned while a write transaction was still open")
	case <-time.After(20 * time.Millisecond):
	}
	close(releaseTx)
	<-writerDone
	select {
	case <-barrierDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Barrier did not return after the writer finished")
	}
	if got := s.Count("t"); got != 1 {
		t.Fatalf("count after barrier = %d, want 1", got)
	}
}

// TestTxPinnedSchemaAndCounts: Tx.Tables and Tx.Count answer from the
// pinned snapshot while Store.Tables/Store.Count follow the live head.
func TestTxPinnedSchemaAndCounts(t *testing.T) {
	s := newTestStore(t, "t")
	tx, err := s.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if err := s.CreateTable("later"); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(func(utx *Tx) error {
		_, err := utx.Insert("t", Record{"name": "new"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := tx.Tables(); len(got) != 1 || got[0] != "t" {
		t.Errorf("pinned Tables() = %v, want [t]", got)
	}
	if got := s.Tables(); len(got) != 2 {
		t.Errorf("head Tables() = %v, want [later t]", got)
	}
	if got := tx.Count("t"); got != 0 {
		t.Errorf("pinned Count = %d, want 0", got)
	}
	if got := s.Count("t"); got != 1 {
		t.Errorf("head Count = %d, want 1", got)
	}
	if _, err := tx.Get("t", 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("pinned read of later commit = %v, want ErrNotFound", err)
	}
}

// TestChunkBoundaries crosses the copy-on-write chunk granule with
// inserts, deletes and range scans to pin the chunked layout's edge
// arithmetic.
func TestChunkBoundaries(t *testing.T) {
	s := newTestStore(t, "t")
	n := int64(3*chunkSize + 7)
	if err := s.Update(func(tx *Tx) error {
		for i := int64(1); i <= n; i++ {
			if _, err := tx.Insert("t", Record{"n": i}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Delete one id on each side of every chunk boundary, plus the first
	// and last, then an entire middle chunk.
	var dead []int64
	for c := 1; c <= 3; c++ {
		edge := int64(c * chunkSize)
		dead = append(dead, edge, edge+1)
	}
	dead = append(dead, 1, n)
	for i := int64(chunkSize + 2); i <= 2*chunkSize-1; i++ {
		dead = append(dead, i)
	}
	deadSet := make(map[int64]bool, len(dead))
	if err := s.Update(func(tx *Tx) error {
		for _, id := range dead {
			if deadSet[id] {
				continue
			}
			deadSet[id] = true
			if err := tx.Delete("t", id); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := int(n) - len(deadSet)
	if got := s.Count("t"); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	if err := s.View(func(tx *Tx) error {
		prev := int64(0)
		ids := queryIDs(t, tx, Query{Table: "t"})
		for _, id := range ids {
			if id <= prev {
				t.Errorf("scan out of order: %d after %d", id, prev)
			}
			if deadSet[id] {
				t.Errorf("scan returned deleted id %d", id)
			}
			prev = id
		}
		if len(ids) != want {
			t.Errorf("scan saw %d rows, want %d", len(ids), want)
		}
		checkAgainstOracle(t, tx, "t", "sparse chunks")
		// Range scan that starts inside the hollowed-out chunk.
		first := queryIDs(t, tx, Query{Table: "t", Where: []Pred{Range(IDField, int64(chunkSize+5), nil)}, Limit: 1})
		if len(first) != 1 || first[0] != 2*chunkSize+2 {
			t.Errorf("first live id after hole = %v, want %d", first, 2*chunkSize+2)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Reinsert after the deletes: fresh ids continue past n.
	var fresh int64
	if err := s.Update(func(tx *Tx) error {
		var err error
		fresh, err = tx.Insert("t", Record{"n": int64(-1)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if fresh != n+1 {
		t.Fatalf("id after deletes = %d, want %d", fresh, n+1)
	}
}

// TestOptimisticCommitDurable runs Begin/Commit transactions against a
// durable store and reopens the directory: optimistic commits must flow
// through the WAL exactly like Update commits.
func TestOptimisticCommitDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DurabilityOptions{Sync: SyncAlways, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	tx, err := s.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	id, err := tx.Insert("t", Record{"name": "durable-optimist"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, DurabilityOptions{Sync: SyncAlways, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	r, err := s2.Get("t", id)
	if err != nil || r.String("name") != "durable-optimist" {
		t.Fatalf("after reopen: %v %v", r, err)
	}
	// Conflict stamps survive recovery: a transaction pinned before a
	// post-recovery commit still conflicts on the rewritten row.
	old, err := s2.Begin(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Put("t", id, Record{"name": "stale"}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Update(func(utx *Tx) error {
		return utx.Put("t", id, Record{"name": "fresh"})
	}); err != nil {
		t.Fatal(err)
	}
	if err := old.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale commit after recovery = %v, want ErrConflict", err)
	}
}

// TestReadersUnblockedByWriter is the interference regression test: a
// reader that begins while a write transaction is open must finish
// without waiting for it. Under the old single-RWMutex store this
// deadlocked (the View could not start until the Update returned).
func TestReadersUnblockedByWriter(t *testing.T) {
	s := newTestStore(t, "t")
	if err := s.Update(func(tx *Tx) error {
		_, err := tx.Insert("t", Record{"name": "pre"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	inTx := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Update(func(tx *Tx) error {
			_, err := tx.Insert("t", Record{"name": "slow"})
			close(inTx)
			<-release
			return err
		})
	}()
	<-inTx
	readDone := make(chan int, 1)
	go func() {
		var n int
		_ = s.View(func(tx *Tx) error {
			n = tx.Count("t")
			return nil
		})
		readDone <- n
	}()
	select {
	case n := <-readDone:
		if n != 1 {
			t.Errorf("reader saw %d rows, want 1 (pre-write state)", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader blocked behind an open write transaction")
	}
	close(release)
	<-done
	if got := s.Count("t"); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
}

// TestConflictErrorShape: ErrConflict wraps with table/id context and is
// matchable with errors.Is.
func TestConflictErrorShape(t *testing.T) {
	s := newTestStore(t, "t")
	var id int64
	if err := s.Update(func(tx *Tx) error {
		var err error
		id, err = tx.Insert("t", Record{"v": int64(1)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin(false)
	if err := tx.Put("t", id, Record{"v": int64(2)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(func(utx *Tx) error {
		return utx.Put("t", id, Record{"v": int64(3)})
	}); err != nil {
		t.Fatal(err)
	}
	err := tx.Commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict", err)
	}
	want := fmt.Sprintf("t/%d", id)
	if msg := err.Error(); !contains(msg, want) {
		t.Errorf("error %q does not name the conflicting record %q", msg, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
