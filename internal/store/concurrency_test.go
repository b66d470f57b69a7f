package store

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentReadersAndWriters hammers the store with parallel
// transactions; run with -race to validate the locking discipline.
func TestConcurrentReadersAndWriters(t *testing.T) {
	s := newTestStore(t, "t")
	if err := s.CreateIndex("t", "grp", false); err != nil {
		t.Fatal(err)
	}
	const writers, readers, perWorker = 4, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				err := s.Update(func(tx *Tx) error {
					_, err := tx.Insert("t", Record{
						"grp": fmt.Sprintf("g%d", i%5),
						"src": fmt.Sprintf("w%d", w),
					})
					return err
				})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				err := s.View(func(tx *Tx) error {
					_, err := lookupIDs(tx, "t", "grp", "g1")
					if err != nil {
						return err
					}
					_, err = drainIDs(tx, Query{Table: "t"})
					return err
				})
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Count("t"); got != writers*perWorker {
		t.Errorf("count = %d, want %d", got, writers*perWorker)
	}
	// Index is consistent after the storm.
	total := 0
	_ = s.View(func(tx *Tx) error {
		for g := 0; g < 5; g++ {
			ids, err := lookupIDs(tx, "t", "grp", fmt.Sprintf("g%d", g))
			if err != nil {
				return err
			}
			total += len(ids)
		}
		return nil
	})
	if total != writers*perWorker {
		t.Errorf("indexed total = %d, want %d", total, writers*perWorker)
	}
}

// TestConcurrentSaveWhileWriting verifies snapshots can be taken while
// writers are active (Save serializes a pinned version, fully lock-free).
func TestConcurrentSaveWhileWriting(t *testing.T) {
	s := newTestStore(t, "t")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Update(func(tx *Tx) error {
				_, err := tx.Insert("t", Record{"n": int64(i)})
				return err
			})
			i++
		}
	}()
	for i := 0; i < 10; i++ {
		var sink discardWriter
		if err := s.Save(&sink); err != nil {
			t.Errorf("save: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
