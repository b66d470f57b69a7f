package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickInsertGetIdentity: any inserted record reads back equal (string
// fields used as the carrier).
func TestQuickInsertGetIdentity(t *testing.T) {
	s := newTestStore(t, "t")
	f := func(name string, n int64, flag bool) bool {
		var id int64
		err := s.Update(func(tx *Tx) error {
			var err error
			id, err = tx.Insert("t", Record{"name": name, "n": n, "flag": flag})
			return err
		})
		if err != nil {
			return false
		}
		r, err := s.Get("t", id)
		if err != nil {
			return false
		}
		return r.String("name") == name && r.Int("n") == n && r.Bool("flag") == flag
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickSaveLoadEquivalence: for random stores, Save→Load preserves every
// record and the table count.
func TestQuickSaveLoadEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		nTables := 1 + rng.Intn(3)
		for ti := 0; ti < nTables; ti++ {
			name := fmt.Sprintf("tab%d", ti)
			if err := s.CreateTable(name); err != nil {
				return false
			}
			nRows := rng.Intn(20)
			err := s.Update(func(tx *Tx) error {
				for ri := 0; ri < nRows; ri++ {
					_, err := tx.Insert(name, Record{
						"s":  fmt.Sprintf("v%d", rng.Intn(100)),
						"i":  int64(rng.Intn(1000)),
						"f":  rng.Float64(),
						"b":  rng.Intn(2) == 0,
						"li": []int64{int64(rng.Intn(5))},
					})
					if err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return false
		}
		s2 := New()
		if err := s2.Load(&buf); err != nil {
			return false
		}
		if len(s.Tables()) != len(s2.Tables()) {
			return false
		}
		for _, name := range s.Tables() {
			if s.Count(name) != s2.Count(name) {
				return false
			}
			ok := true
			_ = s.View(func(tx *Tx) error {
				for _, r := range naiveRows(t, tx, name) {
					r2, err := s2.Get(name, r.ID())
					if err != nil || fmt.Sprint(r) != fmt.Sprint(r2) {
						ok = false
					}
				}
				return nil
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickUniqueInvariant: after any sequence of random inserts with
// colliding keys, no two live rows share a unique key.
func TestQuickUniqueInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		if err := s.CreateTable("u"); err != nil {
			return false
		}
		if err := s.CreateIndex("u", "k", true); err != nil {
			return false
		}
		for op := 0; op < 60; op++ {
			key := fmt.Sprintf("k%d", rng.Intn(10))
			switch rng.Intn(3) {
			case 0: // insert (may legitimately fail on duplicates)
				_ = s.Update(func(tx *Tx) error {
					_, err := tx.Insert("u", Record{"k": key})
					return err
				})
			case 1: // delete a random live row
				if victim := randomLiveID(s, "u", rng); victim != 0 {
					_ = s.Update(func(tx *Tx) error { return tx.Delete("u", victim) })
				}
			case 2: // rename a random live row
				if victim := randomLiveID(s, "u", rng); victim != 0 {
					_ = s.Update(func(tx *Tx) error {
						return tx.Put("u", victim, Record{"k": key})
					})
				}
			}
		}
		// Invariant: distinct live rows never share k.
		seen := map[string]int64{}
		violated := false
		_ = s.View(func(tx *Tx) error {
			for _, r := range naiveRows(t, tx, "u") {
				k := r.String("k")
				if prev, dup := seen[k]; dup && prev != r.ID() {
					violated = true
				}
				seen[k] = r.ID()
			}
			return nil
		})
		return !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickCountMatchesScan: Count always equals the number of rows a full
// Query visits, under random mutation. (Count is the independent side here:
// the naive walk is driven by it, so it cannot referee this one.)
func TestQuickCountMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		if err := s.CreateTable("c"); err != nil {
			return false
		}
		for op := 0; op < 50; op++ {
			if rng.Intn(3) > 0 {
				_ = s.Update(func(tx *Tx) error {
					_, err := tx.Insert("c", Record{"n": int64(op)})
					return err
				})
			} else {
				if victim := randomLiveID(s, "c", rng); victim != 0 {
					err := s.Update(func(tx *Tx) error { return tx.Delete("c", victim) })
					if err != nil && !errors.Is(err, ErrNotFound) {
						return false
					}
				}
			}
		}
		var ids []int64
		err := s.View(func(tx *Tx) (err error) {
			ids, err = drainIDs(tx, Query{Table: "c"})
			return err
		})
		return err == nil && len(ids) == s.Count("c")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomLiveID picks one live id of the table, or 0 when it is empty.
func randomLiveID(s *Store, table string, rng *rand.Rand) int64 {
	var ids []int64
	_ = s.View(func(tx *Tx) (err error) {
		ids, err = drainIDs(tx, Query{Table: table})
		return err
	})
	if len(ids) == 0 {
		return 0
	}
	return ids[rng.Intn(len(ids))]
}

// TestQuickQueryMatchesNaiveWalk: inside one transaction that inserts,
// rewrites and deletes rows over a random committed base, every id-ordered
// read shape (ascending, Desc, Cursor pages, Range("id")) and every Eq
// lookup — indexed and unindexed — answers exactly like the naive GetRef
// walk after every single write. Each seed runs a short transaction that
// stays below the overlay map-build threshold and a long one that crosses
// it, so both overlay regimes of scanRows and lookupKeys are refereed.
func TestQuickQueryMatchesNaiveWalk(t *testing.T) {
	groups := []string{"g0", "g1", "g2"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, ops := range []int{ixwBuildThreshold / 2, 3 * ixwBuildThreshold} {
			s := newTestStore(t, "t")
			if err := s.CreateIndex("t", "g", false); err != nil {
				t.Fatal(err)
			}
			randRec := func() Record {
				return Record{"g": groups[rng.Intn(len(groups))], "z": groups[rng.Intn(len(groups))]}
			}
			// Committed base spanning more than one chunk, with holes.
			base := chunkSize + rng.Intn(chunkSize)
			err := s.Update(func(tx *Tx) error {
				for i := 0; i < base; i++ {
					if _, err := tx.Insert("t", randRec()); err != nil {
						return err
					}
				}
				for i := 0; i < base/8; i++ {
					_ = tx.Delete("t", int64(rng.Intn(base)+1)) // may repeat: ErrNotFound is fine
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			err = s.Update(func(tx *Tx) error {
				for op := 0; op < ops; op++ {
					var err error
					switch id := int64(rng.Intn(base+op) + 1); rng.Intn(3) {
					case 0:
						_, err = tx.Insert("t", randRec())
					case 1:
						err = tx.Put("t", id, randRec())
					case 2:
						err = tx.Delete("t", id)
					}
					if err != nil && !errors.Is(err, ErrNotFound) {
						return err
					}
					label := fmt.Sprintf("seed %d, %d ops, after op %d", seed, ops, op)
					checkAgainstOracle(t, tx, "t", label)
					for _, field := range []string{"g", "z"} {
						checkEqAgainstOracle(t, tx, "t", field, groups[rng.Intn(len(groups))], label)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}
