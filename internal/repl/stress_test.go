package repl

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// TestFollowerScanPaginationStress is the isolation half of the chaos
// campaign, meant to run under -race: a primary writer atomically
// rewrites every row to a new generation each commit while the frames
// stream over TCP into a follower, and reader goroutines paginate the
// follower with ScanRange using one View transaction per page. The
// replicated MVCC contract under that race:
//
//   - every page is internally consistent: a single generation across
//     all rows it returns (one snapshot per page, no torn reads while
//     ApplyReplicated installs new versions);
//   - each reader's asOf (tx.Snapshot()) never moves backwards across
//     pages, and neither does the observed generation — replicated
//     reads are monotonic per client.
func TestFollowerScanPaginationStress(t *testing.T) {
	const (
		rowN    = 8
		pageSz  = 3
		readers = 4
	)
	primary := newPrimary(t)
	ids := make([]int64, rowN)
	for i := range ids {
		ids[i] = putAcct(t, primary, fmt.Sprintf("row%d", i), 0)
	}
	_, addr := startServer(t, primary)
	fstore := store.New()
	mustSchema(t, fstore)
	f := startFollower(t, fstore, addr)
	waitConnected(t, f)
	// Readers demand full pages, so the seed rows must have landed.
	if err := f.WaitForSeq(primary.CommitSeq(), 10*time.Second); err != nil {
		t.Fatal(err)
	}

	dur := 1500 * time.Millisecond
	if testing.Short() {
		dur = 400 * time.Millisecond
	}
	deadline := time.Now().Add(dur)

	stop := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		defer close(writerErr)
		for gen := int64(1); ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := primary.Update(func(tx *store.Tx) error {
				for i, id := range ids {
					r := store.Record{"login": fmt.Sprintf("row%d", i), "gen": gen}
					if err := tx.Put("acct", id, r); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				writerErr <- err
				return
			}
		}
	}()

	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastSnap uint64
			lastGen := int64(-1)
			pages := 0
			for time.Now().Before(deadline) {
				for from := int64(1); from <= rowN; from += pageSz {
					to := from + pageSz - 1
					if to > rowN {
						to = rowN
					}
					err := fstore.View(func(tx *store.Tx) error {
						snap := tx.Snapshot()
						if snap < lastSnap {
							return fmt.Errorf("reader %d: asOf went backwards: %d after %d", r, snap, lastSnap)
						}
						lastSnap = snap
						pageGen := int64(-1)
						n := 0
						rows, err := tx.Query(store.Query{Table: "acct", Cursor: from - 1, Limit: int(to - from + 1)})
						if err != nil {
							return err
						}
						for pageGen != -2 && rows.Next() {
							n++
							g := rows.Record().Int("gen")
							if pageGen == -1 {
								pageGen = g
							} else if g != pageGen {
								pageGen = -2
							}
						}
						if err := rows.Err(); err != nil {
							return err
						}
						if pageGen == -2 {
							return fmt.Errorf("reader %d: torn page %d-%d: mixed generations in one snapshot", r, from, to)
						}
						if n != int(to-from+1) {
							return fmt.Errorf("reader %d: page %d-%d returned %d rows, want %d", r, from, to, n, to-from+1)
						}
						if pageGen < lastGen {
							return fmt.Errorf("reader %d: generation went backwards across pages: %d after %d", r, pageGen, lastGen)
						}
						lastGen = pageGen
						return nil
					})
					if err != nil {
						errs <- err
						return
					}
					pages++
				}
			}
			if pages == 0 {
				errs <- fmt.Errorf("reader %d read no pages", r)
			}
		}(r)
	}

	wg.Wait()
	close(stop)
	if err, ok := <-writerErr; ok && err != nil {
		t.Fatalf("writer: %v", err)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
