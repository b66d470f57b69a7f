package store

import (
	"errors"
	"fmt"
	"testing"
)

func TestIndexLookup(t *testing.T) {
	s := newTestStore(t, "sample")
	if err := s.CreateIndex("sample", "project", false); err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 6; i++ {
		ids = append(ids, mustInsert(t, s, "sample", Record{"project": int64(i % 2)}))
	}
	err := s.View(func(tx *Tx) error {
		got := checkEqAgainstOracle(t, tx, "sample", "project", int64(0), "indexed")
		want := []int64{ids[0], ids[2], ids[4]}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("lookup = %v, want %v", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLookupWithoutIndexFallsBackToScan(t *testing.T) {
	s := newTestStore(t, "sample")
	mustInsert(t, s, "sample", Record{"color": "red"})
	mustInsert(t, s, "sample", Record{"color": "blue"})
	mustInsert(t, s, "sample", Record{"color": "red"})
	err := s.View(func(tx *Tx) error {
		got := checkEqAgainstOracle(t, tx, "sample", "color", "red", "unindexed")
		if len(got) != 2 || got[0] != 1 || got[1] != 3 {
			t.Errorf("unindexed lookup = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUniqueIndexRejectsDuplicates(t *testing.T) {
	s := newTestStore(t, "user")
	if err := s.CreateIndex("user", "login", true); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, s, "user", Record{"login": "alice"})
	err := s.Update(func(tx *Tx) error {
		_, err := tx.Insert("user", Record{"login": "alice"})
		return err
	})
	if !errors.Is(err, ErrUnique) {
		t.Fatalf("duplicate login: got %v, want ErrUnique", err)
	}
	// A different value is fine.
	mustInsert(t, s, "user", Record{"login": "bob"})
}

func TestUniqueIndexWithinSingleTx(t *testing.T) {
	s := newTestStore(t, "user")
	if err := s.CreateIndex("user", "login", true); err != nil {
		t.Fatal(err)
	}
	err := s.Update(func(tx *Tx) error {
		if _, err := tx.Insert("user", Record{"login": "carol"}); err != nil {
			return err
		}
		_, err := tx.Insert("user", Record{"login": "carol"})
		return err
	})
	if !errors.Is(err, ErrUnique) {
		t.Fatalf("same-tx duplicate: got %v, want ErrUnique", err)
	}
	if s.Count("user") != 0 {
		t.Error("failed tx leaked rows")
	}
}

func TestUniqueIndexAllowsValueHandoffInTx(t *testing.T) {
	s := newTestStore(t, "user")
	if err := s.CreateIndex("user", "login", true); err != nil {
		t.Fatal(err)
	}
	a := mustInsert(t, s, "user", Record{"login": "old"})
	// Rename a, then reuse "old" for a new row, all in one transaction.
	err := s.Update(func(tx *Tx) error {
		if err := tx.Put("user", a, Record{"login": "renamed"}); err != nil {
			return err
		}
		_, err := tx.Insert("user", Record{"login": "old"})
		return err
	})
	if err != nil {
		t.Fatalf("value handoff rejected: %v", err)
	}
}

func TestUniqueIndexFreedByDeleteInTx(t *testing.T) {
	s := newTestStore(t, "user")
	if err := s.CreateIndex("user", "login", true); err != nil {
		t.Fatal(err)
	}
	a := mustInsert(t, s, "user", Record{"login": "x"})
	err := s.Update(func(tx *Tx) error {
		if err := tx.Delete("user", a); err != nil {
			return err
		}
		_, err := tx.Insert("user", Record{"login": "x"})
		return err
	})
	if err != nil {
		t.Fatalf("delete should free unique key: %v", err)
	}
}

func TestIndexMaintainedAcrossUpdateAndDelete(t *testing.T) {
	s := newTestStore(t, "sample")
	if err := s.CreateIndex("sample", "state", false); err != nil {
		t.Fatal(err)
	}
	id := mustInsert(t, s, "sample", Record{"state": "pending"})
	if err := s.Update(func(tx *Tx) error {
		return tx.Put("sample", id, Record{"state": "released"})
	}); err != nil {
		t.Fatal(err)
	}
	_ = s.View(func(tx *Tx) error {
		if ids, _ := lookupIDs(tx, "sample", "state", "pending"); len(ids) != 0 {
			t.Errorf("stale index entry for pending: %v", ids)
		}
		if ids, _ := lookupIDs(tx, "sample", "state", "released"); len(ids) != 1 {
			t.Errorf("missing index entry for released")
		}
		return nil
	})
	if err := s.Update(func(tx *Tx) error { return tx.Delete("sample", id) }); err != nil {
		t.Fatal(err)
	}
	_ = s.View(func(tx *Tx) error {
		if ids, _ := lookupIDs(tx, "sample", "state", "released"); len(ids) != 0 {
			t.Errorf("index entry survived delete: %v", ids)
		}
		return nil
	})
}

func TestCreateIndexOnPopulatedTable(t *testing.T) {
	s := newTestStore(t, "sample")
	for i := 0; i < 5; i++ {
		mustInsert(t, s, "sample", Record{"kind": fmt.Sprintf("k%d", i%2)})
	}
	if err := s.CreateIndex("sample", "kind", false); err != nil {
		t.Fatal(err)
	}
	_ = s.View(func(tx *Tx) error {
		ids, _ := lookupIDs(tx, "sample", "kind", "k0")
		if len(ids) != 3 {
			t.Errorf("backfilled index lookup = %v", ids)
		}
		return nil
	})
}

func TestCreateUniqueIndexOnViolatingTableFails(t *testing.T) {
	s := newTestStore(t, "user")
	mustInsert(t, s, "user", Record{"login": "dup"})
	mustInsert(t, s, "user", Record{"login": "dup"})
	if err := s.CreateIndex("user", "login", true); !errors.Is(err, ErrUnique) {
		t.Fatalf("got %v, want ErrUnique", err)
	}
}

func TestLookupOverlayInTx(t *testing.T) {
	s := newTestStore(t, "sample")
	if err := s.CreateIndex("sample", "state", false); err != nil {
		t.Fatal(err)
	}
	a := mustInsert(t, s, "sample", Record{"state": "pending"})
	err := s.Update(func(tx *Tx) error {
		// Change a's state and add a new pending row; Lookup must reflect both.
		if err := tx.Put("sample", a, Record{"state": "released"}); err != nil {
			return err
		}
		nid, err := tx.Insert("sample", Record{"state": "pending"})
		if err != nil {
			return err
		}
		ids := checkEqAgainstOracle(t, tx, "sample", "state", "pending", "overlay")
		if len(ids) != 1 || ids[0] != nid {
			t.Errorf("overlay lookup pending = %v, want [%d]", ids, nid)
		}
		checkAgainstOracle(t, tx, "sample", "overlay")
		ids = checkEqAgainstOracle(t, tx, "sample", "state", "released", "overlay")
		if len(ids) != 1 || ids[0] != a {
			t.Errorf("overlay lookup released = %v, want [%d]", ids, a)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEqCollectAndLimitOne(t *testing.T) {
	s := newTestStore(t, "sample")
	mustInsert(t, s, "sample", Record{"grp": "a", "n": int64(1)})
	mustInsert(t, s, "sample", Record{"grp": "b", "n": int64(2)})
	mustInsert(t, s, "sample", Record{"grp": "a", "n": int64(3)})
	_ = s.View(func(tx *Tx) error {
		collect := func(q Query) []Row {
			rows, err := tx.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := rows.Collect()
			if err != nil {
				t.Fatal(err)
			}
			return rs
		}
		rs := collect(Query{Table: "sample", Where: []Pred{Eq("grp", "a")}})
		if len(rs) != 2 || rs[0].Int("n") != 1 || rs[1].Int("n") != 3 {
			t.Errorf("Eq(grp=a) = %v", rs)
		}
		first := collect(Query{Table: "sample", Where: []Pred{Eq("grp", "a")}, Limit: 1})
		if len(first) != 1 || first[0].Int("n") != 1 {
			t.Errorf("Eq(grp=a) limit 1 = %v", first)
		}
		if none := collect(Query{Table: "sample", Where: []Pred{Eq("grp", "zzz")}, Limit: 1}); len(none) != 0 {
			t.Errorf("Eq(grp=zzz) = %v, want no row", none)
		}
		return nil
	})
}

func TestKeyForTypeSeparation(t *testing.T) {
	// int64(1), "1", true and 1.0 must all index separately.
	keys := map[indexKey]bool{}
	for _, v := range []any{int64(1), "1", true, 1.0} {
		k, ok := keyFor(v)
		if !ok {
			t.Fatalf("keyFor(%v) not indexable", v)
		}
		if keys[k] {
			t.Fatalf("key collision for %v: %q", v, k)
		}
		keys[k] = true
	}
	if _, ok := keyFor([]int64{1}); ok {
		t.Error("slices must not be indexable")
	}
	if _, ok := keyFor(nil); ok {
		t.Error("nil must not be indexable")
	}
}
