package store

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// These tests pin the indexed-overlay semantics: the per-transaction
// key→ids maps that make unique checks and overlay-aware lookups O(1)
// must be observationally identical to the reference implementation that
// scanned every pending write, across arbitrary Insert/Put/Delete/Query
// interleavings — including the failure paths, which must leave no
// partial overlay state behind.

// overlayTestStore builds a table with a unique index (u), a non-unique
// index (g) and an unindexed field (z).
func overlayTestStore(t *testing.T) *Store {
	t.Helper()
	s := New()
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("t", "u", true); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("t", "g", false); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestInsertFailureLeavesNoOverlayState is the regression test for the
// provisional-id rollback path: a failed Insert must undo everything — the
// provisional id and any overlay-map registration — so that a subsequent
// successful Insert yields exactly the postings it would have without the
// failure. It runs in both overlay regimes: below the map-build threshold
// (pending set scanned) and above it (materialized key maps).
func TestInsertFailureLeavesNoOverlayState(t *testing.T) {
	for _, seed := range []int{0, ixwBuildThreshold + 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testInsertFailureUndo(t, seed)
		})
	}
}

func testInsertFailureUndo(t *testing.T, seed int) {
	s := overlayTestStore(t)
	err := s.Update(func(tx *Tx) error {
		for i := 0; i < seed; i++ {
			if _, err := tx.Insert("t", Record{"u": fmt.Sprintf("seed%d", i), "g": "seed"}); err != nil {
				return err
			}
		}
		first, err := tx.Insert("t", Record{"u": "taken", "g": "x"})
		if err != nil {
			return err
		}
		// This insert passes the non-unique index but violates u: if the
		// implementation registered overlay entries index-by-index before
		// failing, g="phantom" would leak.
		if _, err := tx.Insert("t", Record{"u": "taken", "g": "phantom"}); !errors.Is(err, ErrUnique) {
			return fmt.Errorf("want ErrUnique, got %v", err)
		}
		second, err := tx.Insert("t", Record{"u": "free", "g": "phantom"})
		if err != nil {
			return fmt.Errorf("insert after failed insert: %w", err)
		}
		if second != first+1 {
			return fmt.Errorf("provisional id not rolled back: ids %d, %d", first, second)
		}
		ids, err := lookupIDs(tx, "t", "g", "phantom")
		if err != nil {
			return err
		}
		if len(ids) != 1 || ids[0] != second {
			return fmt.Errorf("phantom overlay entry survived the failed insert: g=phantom -> %v", ids)
		}
		// The failed insert's unique key must not block re-use either.
		if _, err := tx.Insert("t", Record{"u": "free2", "g": "x"}); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Committed postings must match the overlay-time view exactly.
	err = s.View(func(tx *Tx) error {
		for _, tc := range []struct {
			field string
			value string
			want  int
		}{{"g", "phantom", 1}, {"g", "x", 2}, {"u", "taken", 1}, {"u", "free", 1}, {"g", "seed", seed}} {
			ids, err := lookupIDs(tx, "t", tc.field, tc.value)
			if err != nil {
				return err
			}
			if len(ids) != tc.want {
				return fmt.Errorf("%s=%s: got %v, want %d ids", tc.field, tc.value, ids, tc.want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// refModel is the reference implementation the overlay maps must match: a
// mirror of committed state plus scan-all-pending transaction semantics.
type refModel struct {
	committed map[int64]Record
	writes    map[int64]Record
	deletes   map[int64]bool
	nextID    int64
}

func newRefModel() *refModel {
	return &refModel{committed: make(map[int64]Record), nextID: 1}
}

func (m *refModel) beginTx() {
	m.writes = make(map[int64]Record)
	m.deletes = make(map[int64]bool)
}

func (m *refModel) commitTx() {
	for id := range m.deletes {
		delete(m.committed, id)
	}
	for id, r := range m.writes {
		m.committed[id] = r
	}
	m.writes, m.deletes = nil, nil
}

func (m *refModel) exists(id int64) bool {
	if m.deletes[id] {
		return false
	}
	if _, ok := m.writes[id]; ok {
		return true
	}
	_, ok := m.committed[id]
	return ok
}

// uniqueConflict reports whether writing value v under id on the unique
// field would collide, per the reference scan-everything semantics.
func (m *refModel) uniqueConflict(v any, self int64) bool {
	k, ok := keyFor(v)
	if !ok {
		return false
	}
	for id, r := range m.committed {
		if id == self || m.deletes[id] {
			continue
		}
		if _, rewritten := m.writes[id]; rewritten {
			continue
		}
		if k2, ok2 := keyFor(r["u"]); ok2 && k2 == k {
			return true
		}
	}
	for id, r := range m.writes {
		if id == self {
			continue
		}
		if k2, ok2 := keyFor(r["u"]); ok2 && k2 == k {
			return true
		}
	}
	return false
}

// lookup is the reference equality lookup: filter committed, scan pending,
// sort.
func (m *refModel) lookup(field string, v any) []int64 {
	want, ok := keyFor(v)
	if !ok {
		return nil
	}
	var ids []int64
	for id, r := range m.committed {
		if m.deletes[id] {
			continue
		}
		if _, rewritten := m.writes[id]; rewritten {
			continue
		}
		if k, ok2 := keyFor(r[field]); ok2 && k == want {
			ids = append(ids, id)
		}
	}
	for id, r := range m.writes {
		if m.deletes[id] {
			continue
		}
		if k, ok2 := keyFor(r[field]); ok2 && k == want {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (m *refModel) insert(r Record) (int64, bool) {
	if m.uniqueConflict(r["u"], 0) {
		return 0, false
	}
	id := m.nextID
	m.nextID++
	rec := maps.Clone(r)
	rec[IDField] = id
	m.writes[id] = rec
	return id, true
}

func (m *refModel) put(id int64, r Record) error {
	if !m.exists(id) {
		return ErrNotFound
	}
	if m.uniqueConflict(r["u"], id) {
		return ErrUnique
	}
	rec := maps.Clone(r)
	rec[IDField] = id
	m.writes[id] = rec
	return nil
}

func (m *refModel) del(id int64) bool {
	if !m.exists(id) {
		return false
	}
	delete(m.writes, id)
	m.deletes[id] = true
	return true
}

// liveIDs returns every id visible to the current transaction, sorted.
func (m *refModel) liveIDs() []int64 {
	var ids []int64
	for id := range m.committed {
		if !m.deletes[id] {
			if _, rewritten := m.writes[id]; !rewritten {
				ids = append(ids, id)
			}
		}
	}
	for id := range m.writes {
		if !m.deletes[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestOverlayMatchesReferenceModel drives randomized interleavings of
// Insert/Put/Delete/Query through multi-statement transactions and
// checks, op by op and field by field (unique index, non-unique index,
// unindexed fallback), that the overlay-indexed implementation answers
// exactly like the reference scan-all-pending model — including which
// operations fail. Each probe also runs the id-ordered read shapes
// (ascending, Desc, Cursor, Range("id")) against the model's live ids and
// the naive GetRef walk, in transactions on both sides of the overlay
// map-build threshold. A concurrent snapshot reader runs throughout so
// the -race pass also fences the overlay maps against the lock-free read
// path.
func TestOverlayMatchesReferenceModel(t *testing.T) {
	s := overlayTestStore(t)
	ref := newRefModel()
	rng := rand.New(rand.NewSource(42))

	// Enough distinct unique keys that a transaction's pending writes can
	// outgrow the overlay map-build threshold before inserts start to
	// collide (asserted after the loop).
	var uvals []string
	for i := 0; i < 4*ixwBuildThreshold; i++ {
		uvals = append(uvals, fmt.Sprintf("u%d", i))
	}
	gvals := []string{"g0", "g1", "g2"}
	zvals := []string{"z0", "z1"}
	randRec := func() Record {
		return Record{
			"u": uvals[rng.Intn(len(uvals))],
			"g": gvals[rng.Intn(len(gvals))],
			"z": zvals[rng.Intn(len(zvals))],
		}
	}
	pickID := func() int64 {
		live := ref.liveIDs()
		if len(live) == 0 || rng.Intn(8) == 0 {
			return int64(rng.Intn(int(ref.nextID) + 2)) // sometimes dead/bogus
		}
		return live[rng.Intn(len(live))]
	}

	// Background snapshot reader: must never observe uncommitted overlay
	// state and must not race with overlay-map maintenance.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.View(func(tx *Tx) error {
				for _, v := range uvals {
					ids, err := lookupIDs(tx, "t", "u", v)
					if err != nil {
						return err
					}
					if len(ids) > 1 {
						t.Errorf("unique u=%s has %d committed holders", v, len(ids))
					}
				}
				return nil
			})
		}
	}()

	const rounds = 60
	const opsPerTx = 100
	probesBelow, probesAbove := 0, 0 // probes run without / with the overlay maps built
	for round := 0; round < rounds; round++ {
		ref.beginTx()
		err := s.Update(func(tx *Tx) error {
			for op := 0; op < opsPerTx; op++ {
				switch rng.Intn(7) {
				case 0, 1, 2: // Insert
					r := randRec()
					wantID, wantOK := ref.insert(r)
					id, err := tx.Insert("t", r)
					if wantOK != (err == nil) {
						return fmt.Errorf("round %d op %d: Insert(%v) err=%v, reference ok=%v", round, op, r, err, wantOK)
					}
					if err != nil && !errors.Is(err, ErrUnique) {
						return fmt.Errorf("round %d op %d: Insert unexpected error %v", round, op, err)
					}
					if err == nil && id != wantID {
						return fmt.Errorf("round %d op %d: Insert id %d, reference %d", round, op, id, wantID)
					}
				case 3: // Put
					id := pickID()
					r := randRec()
					wantErr := ref.put(id, r)
					err := tx.Put("t", id, r)
					switch {
					case wantErr == nil && err != nil:
						return fmt.Errorf("round %d op %d: Put(%d) failed: %v", round, op, id, err)
					case wantErr != nil && !errors.Is(err, wantErr):
						return fmt.Errorf("round %d op %d: Put(%d) err=%v, reference %v", round, op, id, err, wantErr)
					}
				case 4: // Delete
					id := pickID()
					wantOK := ref.del(id)
					err := tx.Delete("t", id)
					if wantOK != (err == nil) {
						return fmt.Errorf("round %d op %d: Delete(%d) err=%v, reference ok=%v", round, op, id, err, wantOK)
					}
				default: // Eq query across all three field classes, then the scans
					for _, probe := range []struct {
						field string
						v     string
					}{
						{"u", uvals[rng.Intn(len(uvals))]},
						{"g", gvals[rng.Intn(len(gvals))]},
						{"z", zvals[rng.Intn(len(zvals))]},
					} {
						got, err := lookupIDs(tx, "t", probe.field, probe.v)
						if err != nil {
							return err
						}
						want := ref.lookup(probe.field, probe.v)
						if !equalIDs(got, want) {
							return fmt.Errorf("round %d op %d: Eq(%s=%s) = %v, reference %v",
								round, op, probe.field, probe.v, got, want)
						}
					}
					if o := tx.pending["t"]; o != nil && o.ixw != nil {
						probesAbove++
					} else {
						probesBelow++
					}
					label := fmt.Sprintf("round %d op %d", round, op)
					eqIDs(t, queryIDs(t, tx, Query{Table: "t"}), ref.liveIDs(), label+": scan vs reference model")
					checkAgainstOracle(t, tx, "t", label)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ref.commitTx()

		// After every commit the published index state must match too.
		err = s.View(func(tx *Tx) error {
			for _, v := range uvals {
				if got, want := mustLookup(tx, "u", v), ref.lookup("u", v); !equalIDs(got, want) {
					return fmt.Errorf("round %d committed: u=%s = %v, reference %v", round, v, got, want)
				}
			}
			for _, v := range gvals {
				if got, want := mustLookup(tx, "g", v), ref.lookup("g", v); !equalIDs(got, want) {
					return fmt.Errorf("round %d committed: g=%s = %v, reference %v", round, v, got, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if probesBelow == 0 || probesAbove == 0 {
		t.Fatalf("probes ran %d times below and %d times above the overlay map-build threshold; want both regimes", probesBelow, probesAbove)
	}
}

func mustLookup(tx *Tx, field, v string) []int64 {
	ids, err := lookupIDs(tx, "t", field, v)
	if err != nil {
		panic(err)
	}
	return ids
}

// TestCommitCopiesEachStructureOnce proves the delta-merge commit's copy
// bounds: however many records a commit writes, each touched record chunk
// is deep-copied at most once and each touched index shard (and shard
// group) is privatized at most once. Copy counts are observed through the
// cowStats test hook, which commits populate under the writer mutex.
func TestCommitCopiesEachStructureOnce(t *testing.T) {
	s := overlayTestStore(t)

	stats := &struct{ chunks, groups, shards, postings int }{}
	cowStats = stats
	defer func() { cowStats = nil }()

	// Batch 1: 300 inserts — 3 chunks (ids 1..300 at 128/chunk), one
	// shared g key, 300 distinct u keys.
	const n = 300
	err := s.Update(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			if _, err := tx.Insert("t", Record{"u": fmt.Sprintf("u%04d", i), "g": "shared"}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	wantChunks := (n + chunkSize - 1) / chunkSize
	if stats.chunks != wantChunks {
		t.Errorf("batch insert: %d chunk copies, want %d (one per touched chunk)", stats.chunks, wantChunks)
	}
	// Distinct shards actually touched: the u keys plus the one g key.
	shardSet := make(map[string]bool)
	groupSet := make(map[string]bool)
	for i := 0; i < n; i++ {
		sh := shardOf(mustKey(fmt.Sprintf("u%04d", i)))
		shardSet[fmt.Sprintf("u/%d", sh)] = true
		groupSet[fmt.Sprintf("u/%d", sh>>ixShardBits)] = true
	}
	sh := shardOf(mustKey("shared"))
	shardSet[fmt.Sprintf("g/%d", sh)] = true
	groupSet[fmt.Sprintf("g/%d", sh>>ixShardBits)] = true
	if stats.shards != len(shardSet) {
		t.Errorf("batch insert: %d shard copies, want %d (one per touched shard)", stats.shards, len(shardSet))
	}
	if stats.groups != len(groupSet) {
		t.Errorf("batch insert: %d group copies, want %d (one per touched group)", stats.groups, len(groupSet))
	}
	// Every index mutation was an append of fresh serial ids: no postings
	// slice should have needed a private rebuild.
	if stats.postings != 0 {
		t.Errorf("batch insert: %d postings rebuilds, want 0 (pure appends)", stats.postings)
	}

	// Batch 2: rewrite two rows in the same chunk, moving both off the
	// shared g key — the chunk must be copied once, not twice, and the
	// shared key's postings must be rebuilt exactly once for the combined
	// two-id removal.
	*stats = struct{ chunks, groups, shards, postings int }{}
	err = s.Update(func(tx *Tx) error {
		for _, id := range []int64{10, 20} {
			r, err := tx.Get("t", id)
			if err != nil {
				return err
			}
			r["g"] = "moved"
			if err := tx.Put("t", id, r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.chunks != 1 {
		t.Errorf("same-chunk rewrite: %d chunk copies, want 1", stats.chunks)
	}
	if stats.postings != 1 {
		t.Errorf("shared-key double removal: %d postings rebuilds, want exactly 1", stats.postings)
	}

	// The rewrite must have actually moved the postings.
	err = s.View(func(tx *Tx) error {
		moved, _ := lookupIDs(tx, "t", "g", "moved")
		if !equalIDs(moved, []int64{10, 20}) {
			return fmt.Errorf("g=moved -> %v", moved)
		}
		shared, _ := lookupIDs(tx, "t", "g", "shared")
		if len(shared) != n-2 {
			return fmt.Errorf("g=shared has %d ids, want %d", len(shared), n-2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func mustKey(v any) indexKey {
	k, ok := keyFor(v)
	if !ok {
		panic("unindexable test value")
	}
	return k
}
