package store

import (
	"errors"
	"sync"
	"testing"
	"unsafe"
)

// idRange builds the id-window query ScanRange used to spell: 0 means
// unbounded on that side.
func idRange(table string, from, to int64) Query {
	q := Query{Table: table}
	var min, max any
	if from != 0 {
		min = from
	}
	if to != 0 {
		max = to
	}
	if min != nil || max != nil {
		q.Where = []Pred{Range(IDField, min, max)}
	}
	return q
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQueryIDRangeBoundaries(t *testing.T) {
	s := newTestStore(t, "t")
	for i := 0; i < 10; i++ {
		mustInsert(t, s, "t", Record{"n": int64(i)}) // ids 1..10
	}
	// Punch holes so boundaries land on both present and missing ids.
	err := s.Update(func(tx *Tx) error {
		if err := tx.Delete("t", 4); err != nil {
			return err
		}
		return tx.Delete("t", 9)
	})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		from, to int64
		want     []int64
	}{
		{0, 0, []int64{1, 2, 3, 5, 6, 7, 8, 10}}, // unbounded
		{3, 7, []int64{3, 5, 6, 7}},              // inclusive both ends
		{4, 9, []int64{5, 6, 7, 8}},              // bounds on deleted ids
		{0, 5, []int64{1, 2, 3, 5}},              // open start
		{8, 0, []int64{8, 10}},                   // open end
		{10, 10, []int64{10}},                    // single record
		{11, 0, nil},                             // past the end
		{7, 3, nil},                              // inverted range
	}
	err = s.View(func(tx *Tx) error {
		for _, c := range cases {
			got := queryIDs(t, tx, idRange("t", c.from, c.to))
			if !equalIDs(got, c.want) {
				t.Errorf("id range [%d,%d] = %v, want %v", c.from, c.to, got, c.want)
			}
			oracle := naiveIDs(t, tx, "t", func(r Record) bool {
				return r.ID() >= c.from && (c.to == 0 || r.ID() <= c.to)
			})
			if !equalIDs(got, oracle) {
				t.Errorf("id range [%d,%d] = %v, naive walk says %v", c.from, c.to, got, oracle)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQueryUnknownTable(t *testing.T) {
	s := newTestStore(t, "t")
	err := s.View(func(tx *Tx) error {
		_, err := tx.Query(Query{Table: "nope"})
		return err
	})
	if !errors.Is(err, ErrNoTable) {
		t.Fatalf("got %v, want ErrNoTable", err)
	}
}

func TestQueryIDRangeEarlyStop(t *testing.T) {
	s := newTestStore(t, "t")
	for i := 0; i < 5; i++ {
		mustInsert(t, s, "t", Record{"n": int64(i)})
	}
	var seen []int64
	err := s.View(func(tx *Tx) error {
		// Abandoning a Rows mid-stream is legal: it holds no resource.
		rows, err := tx.Query(idRange("t", 2, 0))
		if err != nil {
			return err
		}
		for len(seen) < 2 && rows.Next() {
			seen = append(seen, rows.ID())
		}
		return rows.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(seen, []int64{2, 3}) {
		t.Fatalf("early stop visited %v, want [2 3]", seen)
	}
}

// TestQueryIDRangeObservesOverlay verifies that id-range queries inside a
// read-write transaction merge pending inserts, rewrites and deletes into
// the committed order.
func TestQueryIDRangeObservesOverlay(t *testing.T) {
	s := newTestStore(t, "t")
	for i := 0; i < 6; i++ {
		mustInsert(t, s, "t", Record{"v": "old"}) // ids 1..6
	}
	err := s.Update(func(tx *Tx) error {
		if err := tx.Delete("t", 2); err != nil {
			return err
		}
		if err := tx.Put("t", 4, Record{"v": "new"}); err != nil {
			return err
		}
		if _, err := tx.Insert("t", Record{"v": "ins"}); err != nil { // id 7
			return err
		}
		var ids []int64
		vals := map[int64]string{}
		rows, err := tx.Query(idRange("t", 2, 7))
		if err != nil {
			return err
		}
		for rows.Next() {
			ids = append(ids, rows.ID())
			vals[rows.ID()] = rows.Record().String("v")
		}
		if err := rows.Err(); err != nil {
			return err
		}
		if want := []int64{3, 4, 5, 6, 7}; !equalIDs(ids, want) {
			t.Errorf("overlay scan = %v, want %v", ids, want)
		}
		if vals[4] != "new" || vals[7] != "ins" || vals[3] != "old" {
			t.Errorf("overlay scan values = %v", vals)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRefSnapshotImmutability pins the aliasing contract: a reference
// obtained inside a transaction remains an unchanged snapshot after the
// transaction ends and later writers rewrite the row, because commits
// replace record maps instead of mutating them.
func TestRefSnapshotImmutability(t *testing.T) {
	s := newTestStore(t, "t")
	id := mustInsert(t, s, "t", Record{"v": "before", "tags": []string{"x"}})

	var ref, rowRef Row
	err := s.View(func(tx *Tx) error {
		var err error
		if ref, err = tx.GetRef("t", id); err != nil {
			return err
		}
		rows, err := tx.Query(Query{Table: "t"})
		if err != nil {
			return err
		}
		if !rows.Next() {
			t.Fatal("query yielded no row")
		}
		rowRef = rows.Record()
		return rows.Err()
	})
	if err != nil {
		t.Fatal(err)
	}

	err = s.Update(func(tx *Tx) error {
		return tx.Put("t", id, Record{"v": "after", "tags": []string{"y", "z"}})
	})
	if err != nil {
		t.Fatal(err)
	}

	for name, held := range map[string]Row{"GetRef": ref, "Rows.Record": rowRef} {
		if got := held.String("v"); got != "before" {
			t.Fatalf("held %s ref mutated: v = %q, want %q", name, got, "before")
		}
		if tags := held.Strings("tags"); len(tags) != 1 || tags[0] != "x" {
			t.Fatalf("held %s ref slice mutated: %v", name, tags)
		}
	}
	cur, err := s.Get("t", id)
	if err != nil {
		t.Fatal(err)
	}
	if got := cur.String("v"); got != "after" {
		t.Fatalf("committed state = %q, want %q", got, "after")
	}
}

// TestRefReadersNeverSeeTornRecords hammers zero-copy readers against a
// committing writer; run with -race. Every record keeps the invariant
// a == b, both while scanning inside the reading transaction and on references
// retained after the reading transaction has ended.
func TestRefReadersNeverSeeTornRecords(t *testing.T) {
	s := newTestStore(t, "t")
	if err := s.CreateIndex("t", "a", false); err != nil {
		t.Fatal(err)
	}
	const rows = 32
	err := s.Update(func(tx *Tx) error {
		for i := 0; i < rows; i++ {
			if _, err := tx.Insert("t", Record{"a": int64(0), "b": int64(0)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers = 4
		rounds  = 200
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: rewrites rows, always keeping a == b
		defer wg.Done()
		for v := int64(1); v <= rounds; v++ {
			id := v%rows + 1
			err := s.Update(func(tx *Tx) error {
				return tx.Put("t", id, Record{"a": v, "b": v})
			})
			if err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var held []Row
				err := s.View(func(tx *Tx) error {
					// Every row is read through Rows.Record and again
					// through GetRef.
					rows, err := tx.Query(Query{Table: "t"})
					if err != nil {
						return err
					}
					for rows.Next() {
						rec := rows.Record()
						if a, b := rec.Int("a"), rec.Int("b"); a != b {
							t.Errorf("torn record %d during scan: a=%d b=%d", rec.ID(), a, b)
						}
						point, err := tx.GetRef("t", rows.ID())
						if err != nil {
							return err
						}
						held = append(held, rec, point)
					}
					return rows.Err()
				})
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				// The transaction is over; retained refs must still be
				// internally consistent snapshots.
				for _, rec := range held {
					if a, b := rec.Int("a"), rec.Int("b"); a != b {
						t.Errorf("torn record %d after release: a=%d b=%d", rec.ID(), a, b)
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestLookupRewriteNoDuplicates is a regression test for the index-resolver
// overlay dedupe: a row rewritten in the transaction with an unchanged indexed value
// must appear exactly once.
func TestLookupRewriteNoDuplicates(t *testing.T) {
	s := newTestStore(t, "t")
	if err := s.CreateIndex("t", "grp", false); err != nil {
		t.Fatal(err)
	}
	id := mustInsert(t, s, "t", Record{"grp": "g", "n": int64(1)})
	err := s.Update(func(tx *Tx) error {
		if err := tx.Put("t", id, Record{"grp": "g", "n": int64(2)}); err != nil {
			return err
		}
		if ids := checkEqAgainstOracle(t, tx, "t", "grp", "g", "rewrite"); !equalIDs(ids, []int64{id}) {
			t.Errorf("Eq query after rewrite = %v, want [%d]", ids, id)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRowsShareRecords verifies Rows.Record, Collect and GetRef hand out
// the stored row itself (the same bytes, no copy) while Get and
// Row.Record decode copies the caller may mutate without reaching the
// store, and the list accessors return fresh slices.
func TestRowsShareRecords(t *testing.T) {
	s := newTestStore(t, "t")
	if err := s.CreateIndex("t", "grp", false); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, s, "t", Record{"grp": "g", "tags": []string{"a"}})
	err := s.View(func(tx *Tx) error {
		rows, err := tx.Query(Query{Table: "t", Where: []Pred{Eq("grp", "g")}})
		if err != nil {
			return err
		}
		refs, err := rows.Collect()
		if err != nil {
			return err
		}
		ref2, err := tx.GetRef("t", refs[0].ID())
		if err != nil {
			return err
		}
		if unsafe.StringData(refs[0].b) != unsafe.StringData(ref2.b) {
			t.Error("Rows and GetRef returned different copies")
		}
		clone, err := tx.Get("t", refs[0].ID())
		if err != nil {
			return err
		}
		clone.Strings("tags")[0] = "mutated"
		clone["grp"] = "h"
		tags := ref2.Strings("tags")
		tags[0] = "mutated too"
		if got := ref2.Strings("tags"); len(got) != 1 || got[0] != "a" || ref2.String("grp") != "g" {
			t.Errorf("writes to copies reached the stored row: tags %v grp %q", got, ref2.String("grp"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
