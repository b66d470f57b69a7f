package store

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// queryStore builds a store with one "sample" table carrying a unique
// "name" index, secondary indexes on "project" and "species", an
// unindexed "grade" field and a "weight" float:
//
//	id 1..n: name=s<i>, project=(i%projects)+1, species cycles 3 values,
//	         grade=i%5, weight=float64(i)
func queryStore(t *testing.T, n, projects int) *Store {
	t.Helper()
	s := newTestStore(t, "sample")
	if err := s.CreateIndex("sample", "name", true); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"project", "species"} {
		if err := s.CreateIndex("sample", f, false); err != nil {
			t.Fatal(err)
		}
	}
	species := []string{"arabidopsis", "human", "mouse"}
	err := s.Update(func(tx *Tx) error {
		for i := 1; i <= n; i++ {
			if _, err := tx.Insert("sample", Record{
				"name":    fmt.Sprintf("s%d", i),
				"project": int64(i%projects + 1),
				"species": species[i%len(species)],
				"grade":   int64(i % 5),
				"weight":  float64(i),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func queryIDs(t testing.TB, tx *Tx, q Query) []int64 {
	t.Helper()
	rows, err := tx.Query(q)
	if err != nil {
		t.Fatalf("Query(%+v): %v", q, err)
	}
	var ids []int64
	for rows.Next() {
		if got := rows.Record().ID(); got != rows.ID() {
			t.Fatalf("Record().ID() = %d, ID() = %d", got, rows.ID())
		}
		ids = append(ids, rows.ID())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows.Err: %v", err)
	}
	return ids
}

func eqIDs(t testing.TB, got, want []int64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d ids %v, want %d %v", label, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: ids[%d] = %d, want %d (got %v want %v)", label, i, got[i], want[i], got, want)
		}
	}
}

func TestQueryPlanSelection(t *testing.T) {
	s := queryStore(t, 200, 10)
	_ = s.View(func(tx *Tx) error {
		cases := []struct {
			q      Query
			access Access
			field  string
		}{
			{Query{Table: "sample", Where: []Pred{Eq("id", int64(7))}}, AccessPoint, "id"},
			{Query{Table: "sample", Where: []Pred{Eq("name", "s3"), Eq("project", int64(1))}}, AccessUnique, "name"},
			{Query{Table: "sample", Where: []Pred{Eq("project", int64(1)), Eq("grade", int64(2))}}, AccessIndex, "project"},
			{Query{Table: "sample", Where: []Pred{Eq("grade", int64(2))}}, AccessScan, ""},
			{Query{Table: "sample"}, AccessScan, ""},
			{Query{Table: "sample", Where: []Pred{In("id", int64(1), int64(5))}}, AccessPoint, "id"},
		}
		for _, c := range cases {
			p, err := tx.Explain(c.q)
			if err != nil {
				t.Fatalf("Explain(%+v): %v", c.q, err)
			}
			if p.Access != c.access || p.Field != c.field {
				t.Errorf("Explain(%+v) = %s; want access=%v field=%q", c.q, p, c.access, c.field)
			}
			rows, err := tx.Query(c.q)
			if err != nil {
				t.Fatal(err)
			}
			if rows.Plan().String() != p.String() {
				t.Errorf("Rows.Plan %q != Explain %q", rows.Plan(), p)
			}
		}
		return nil
	})
}

// TestQueryPlanCostBased pins the planner's selectivity choice: with two
// indexed equality predicates it must drive from the one with the
// smaller committed postings list.
func TestQueryPlanCostBased(t *testing.T) {
	// 300 rows over 30 projects (10 rows each) and 3 species (100 each):
	// project is more selective and must win regardless of order.
	s := queryStore(t, 300, 30)
	_ = s.View(func(tx *Tx) error {
		for _, where := range [][]Pred{
			{Eq("project", int64(4)), Eq("species", "human")},
			{Eq("species", "human"), Eq("project", int64(4))},
		} {
			p, err := tx.Explain(Query{Table: "sample", Where: where})
			if err != nil {
				t.Fatal(err)
			}
			if p.Access != AccessIndex || p.Field != "project" {
				t.Errorf("plan %s: want index(project) driving", p)
			}
			if len(p.Residual) != 1 || p.Residual[0] != "species" {
				t.Errorf("plan %s: want species residual", p)
			}
			if p.EstRows != 10 {
				t.Errorf("plan %s: est = %d, want 10", p, p.EstRows)
			}
		}
		// When one side's postings shrink below the other's, the choice
		// flips — the estimate is read from the index, not schema order.
		p, err := tx.Explain(Query{Table: "sample", Where: []Pred{
			Eq("project", int64(4)), In("species", "human", "mouse", "arabidopsis"),
		}})
		if err != nil {
			t.Fatal(err)
		}
		if p.Field != "project" || p.Keys != 1 {
			t.Errorf("plan %s: 3-key species union must lose to project", p)
		}
		return nil
	})
}

func TestQueryEquivalenceAgainstScan(t *testing.T) {
	s := queryStore(t, 500, 7)
	_ = s.View(func(tx *Tx) error {
		cases := []struct {
			name string
			q    Query
			keep func(Record) bool
		}{
			{"eq-indexed", Query{Table: "sample", Where: []Pred{Eq("project", int64(3))}},
				func(r Record) bool { return r.Int("project") == 3 }},
			{"eq-unindexed", Query{Table: "sample", Where: []Pred{Eq("grade", int64(2))}},
				func(r Record) bool { return r.Int("grade") == 2 }},
			{"multi-pred", Query{Table: "sample", Where: []Pred{Eq("project", int64(3)), Eq("species", "human"), Eq("grade", int64(2))}},
				func(r Record) bool {
					return r.Int("project") == 3 && r.String("species") == "human" && r.Int("grade") == 2
				}},
			{"in-union", Query{Table: "sample", Where: []Pred{In("project", int64(1), int64(5), int64(5))}},
				func(r Record) bool { return r.Int("project") == 1 || r.Int("project") == 5 }},
			{"range-float", Query{Table: "sample", Where: []Pred{Range("weight", 100.5, int64(200))}},
				func(r Record) bool { return r.Float("weight") >= 100.5 && r.Float("weight") <= 200 }},
			{"range-id-scan", Query{Table: "sample", Where: []Pred{Range("id", int64(50), int64(300)), Eq("grade", int64(1))}},
				func(r Record) bool { return r.ID() >= 50 && r.ID() <= 300 && r.Int("grade") == 1 }},
			{"range-open-min", Query{Table: "sample", Where: []Pred{Range("weight", nil, 25.0)}},
				func(r Record) bool { return r.Float("weight") <= 25 }},
			{"unique", Query{Table: "sample", Where: []Pred{Eq("name", "s42")}},
				func(r Record) bool { return r.String("name") == "s42" }},
			{"type-strict-eq", Query{Table: "sample", Where: []Pred{Eq("grade", "2")}},
				func(r Record) bool { return false }},
			{"empty-in", Query{Table: "sample", Where: []Pred{In("project")}},
				func(r Record) bool { return false }},
		}
		for _, c := range cases {
			want := naiveIDs(t, tx, "sample", c.keep)
			eqIDs(t, queryIDs(t, tx, c.q), want, c.name)

			// Desc must yield exactly the reverse.
			rev := make([]int64, len(want))
			for i, id := range want {
				rev[len(want)-1-i] = id
			}
			qd := c.q
			qd.Desc = true
			eqIDs(t, queryIDs(t, tx, qd), rev, c.name+"/desc")
		}
		return nil
	})
}

func TestQueryLimitAndCursor(t *testing.T) {
	s := queryStore(t, 300, 3) // project 1 holds ids 3,6,...,300
	_ = s.View(func(tx *Tx) error {
		q := Query{Table: "sample", Where: []Pred{Eq("project", int64(1))}, Limit: 10}
		all := queryIDs(t, tx, Query{Table: "sample", Where: []Pred{Eq("project", int64(1))}})

		// Page forward through the whole result via keyset cursors.
		var paged []int64
		var cursor int64
		for {
			q.Cursor = cursor
			page := queryIDs(t, tx, q)
			if len(page) == 0 {
				break
			}
			paged = append(paged, page...)
			cursor = page[len(page)-1]
		}
		eqIDs(t, paged, all, "cursor pages")

		// Descending pagination covers the same set in reverse.
		qd := Query{Table: "sample", Where: []Pred{Eq("project", int64(1))}, Limit: 7, Desc: true}
		paged = paged[:0]
		cursor = 0
		for {
			qd.Cursor = cursor
			page := queryIDs(t, tx, qd)
			if len(page) == 0 {
				break
			}
			paged = append(paged, page...)
			cursor = page[len(page)-1]
		}
		if len(paged) != len(all) {
			t.Fatalf("desc pages covered %d of %d", len(paged), len(all))
		}
		for i := range paged {
			if paged[i] != all[len(all)-1-i] {
				t.Fatalf("desc paged[%d] = %d, want %d", i, paged[i], all[len(all)-1-i])
			}
		}

		// Cursor pagination on the scan path too.
		sq := Query{Table: "sample", Where: []Pred{Eq("grade", int64(0))}, Limit: 9}
		allScan := queryIDs(t, tx, Query{Table: "sample", Where: []Pred{Eq("grade", int64(0))}})
		paged = paged[:0]
		cursor = 0
		for {
			sq.Cursor = cursor
			page := queryIDs(t, tx, sq)
			if len(page) == 0 {
				break
			}
			paged = append(paged, page...)
			cursor = page[len(page)-1]
		}
		eqIDs(t, paged, allScan, "scan cursor pages")
		return nil
	})
}

func TestQueryOrderBySort(t *testing.T) {
	s := newTestStore(t, "w")
	err := s.Update(func(tx *Tx) error {
		// Shuffled weights, one row without the field.
		for _, w := range []float64{5, 1, 4, 2, 3} {
			if _, err := tx.Insert("w", Record{"weight": w}); err != nil {
				return err
			}
		}
		_, err := tx.Insert("w", Record{"other": "x"})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.View(func(tx *Tx) error {
		p, err := tx.Explain(Query{Table: "w", OrderBy: "weight"})
		if err != nil {
			t.Fatal(err)
		}
		if !p.Sorted {
			t.Errorf("plan %s: want sort", p)
		}
		// Missing value sorts first, then ascending weights.
		eqIDs(t, queryIDs(t, tx, Query{Table: "w", OrderBy: "weight"}),
			[]int64{6, 2, 4, 5, 3, 1}, "order by weight")
		eqIDs(t, queryIDs(t, tx, Query{Table: "w", OrderBy: "weight", Desc: true, Limit: 2}),
			[]int64{1, 3}, "top-2 by weight desc")
		// Keyset cursors do not compose with value sorts.
		if _, err := tx.Query(Query{Table: "w", OrderBy: "weight", Cursor: 3}); !errors.Is(err, ErrBadQuery) {
			t.Errorf("cursor+sort: %v, want ErrBadQuery", err)
		}
		return nil
	})
}

// TestQueryObservesOverlay runs every access path inside a transaction
// with pending inserts, rewrites and deletes and checks the engine sees
// the transaction's own state, in both directions.
func TestQueryObservesOverlay(t *testing.T) {
	s := queryStore(t, 60, 3)
	err := s.Update(func(tx *Tx) error {
		// id 3 (project 1) deleted; id 6 (project 1) moved to project 2;
		// one fresh insert into project 1.
		if err := tx.Delete("sample", 3); err != nil {
			return err
		}
		if err := tx.Put("sample", 6, Record{"name": "s6", "project": int64(2), "species": "human", "grade": int64(1), "weight": 6.0}); err != nil {
			return err
		}
		newID, err := tx.Insert("sample", Record{"name": "fresh", "project": int64(1), "species": "human", "grade": int64(1), "weight": 0.5})
		if err != nil {
			return err
		}

		keep := func(r Record) bool { return r.Int("project") == 1 }
		want := naiveIDs(t, tx, "sample", keep)
		eqIDs(t, queryIDs(t, tx, Query{Table: "sample", Where: []Pred{Eq("project", int64(1))}}), want, "overlay index path")

		wantScan := naiveIDs(t, tx, "sample", func(Record) bool { return true })
		eqIDs(t, queryIDs(t, tx, Query{Table: "sample"}), wantScan, "overlay scan path")

		rev := make([]int64, len(wantScan))
		for i, id := range wantScan {
			rev[len(rev)-1-i] = id
		}
		eqIDs(t, queryIDs(t, tx, Query{Table: "sample", Desc: true}), rev, "overlay desc scan")

		// Point access sees the overlay too: the deleted row is gone, the
		// insert is visible.
		eqIDs(t, queryIDs(t, tx, Query{Table: "sample", Where: []Pred{In("id", int64(3), newID)}}), []int64{newID}, "overlay point")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQueryBadQueries(t *testing.T) {
	s := queryStore(t, 10, 2)
	_ = s.View(func(tx *Tx) error {
		bad := []Query{
			{Table: "sample", Where: []Pred{Eq("", "x")}},
			{Table: "sample", Where: []Pred{Eq("project", []int64{1})}},
			{Table: "sample", Where: []Pred{Eq("id", "7")}},
			{Table: "sample", Where: []Pred{Range("weight", nil, nil)}},
			{Table: "sample", Where: []Pred{Range("weight", true, nil)}},
			{Table: "sample", Where: []Pred{Range("weight", 1.0, "z")}},
			{Table: "sample", Where: []Pred{Range("id", "a", nil)}},
			{Table: "sample", Where: []Pred{{Field: "project", Op: Op(99)}}},
			{Table: "sample", Limit: -1},
			{Table: "sample", Cursor: -2},
			{Table: "sample", OrderBy: "weight", Cursor: 5},
		}
		for _, q := range bad {
			if _, err := tx.Query(q); !errors.Is(err, ErrBadQuery) {
				t.Errorf("Query(%+v) err = %v, want ErrBadQuery", q, err)
			}
			if _, err := tx.Explain(q); !errors.Is(err, ErrBadQuery) {
				t.Errorf("Explain(%+v) err = %v, want ErrBadQuery", q, err)
			}
		}
		if _, err := tx.Query(Query{Table: "nope"}); !errors.Is(err, ErrNoTable) {
			t.Errorf("unknown table: %v", err)
		}
		return nil
	})
	tx, _ := s.Begin(true)
	tx.Rollback()
	if _, err := tx.Query(Query{Table: "sample"}); !errors.Is(err, ErrTxDone) {
		t.Errorf("done tx: %v", err)
	}
}

// TestQueryRangeEmptyWindow pins the empty id-window encoding: an upper
// bound below the id space yields no rows (not a full scan).
func TestQueryRangeEmptyWindow(t *testing.T) {
	s := queryStore(t, 10, 2)
	_ = s.View(func(tx *Tx) error {
		ids := queryIDs(t, tx, Query{Table: "sample", Where: []Pred{Range("id", nil, int64(0))}})
		if len(ids) != 0 {
			t.Errorf("empty window returned %v", ids)
		}
		return nil
	})
}

// TestQueryDescChunkBoundaries walks descending across chunk seams and
// holes (deleted runs, nil chunks from insert-then-delete).
func TestQueryDescChunkBoundaries(t *testing.T) {
	s := newTestStore(t, "t")
	n := chunkSize*3 + 17
	err := s.Update(func(tx *Tx) error {
		for i := 1; i <= n; i++ {
			if _, err := tx.Insert("t", Record{"n": int64(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Delete the whole second chunk plus a run straddling the 3rd/4th seam.
	err = s.Update(func(tx *Tx) error {
		for id := chunkSize + 1; id <= 2*chunkSize; id++ {
			if err := tx.Delete("t", int64(id)); err != nil {
				return err
			}
		}
		for id := 3*chunkSize - 5; id <= 3*chunkSize+5; id++ {
			if err := tx.Delete("t", int64(id)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.View(func(tx *Tx) error {
		asc := queryIDs(t, tx, Query{Table: "t"})
		desc := queryIDs(t, tx, Query{Table: "t", Desc: true})
		if len(asc) != len(desc) {
			t.Fatalf("asc %d rows, desc %d", len(asc), len(desc))
		}
		for i := range asc {
			if asc[i] != desc[len(desc)-1-i] {
				t.Fatalf("desc not the mirror of asc at %d", i)
			}
		}
		bounded := queryIDs(t, tx, Query{Table: "t", Desc: true,
			Where: []Pred{Range("id", int64(chunkSize-3), int64(2*chunkSize+3))}})
		want := []int64{int64(2*chunkSize + 3), int64(2*chunkSize + 2), int64(2*chunkSize + 1),
			int64(chunkSize), int64(chunkSize - 1), int64(chunkSize - 2), int64(chunkSize - 3)}
		eqIDs(t, bounded, want, "bounded desc across hole")
		return nil
	})
}

// TestQueryRandomizedEquivalence cross-checks the planner+executor
// against scan-and-filter over randomized predicates and data, asc and
// desc, with and without limits.
func TestQueryRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := newTestStore(t, "r")
	if err := s.CreateIndex("r", "a", false); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("r", "b", false); err != nil {
		t.Fatal(err)
	}
	err := s.Update(func(tx *Tx) error {
		for i := 0; i < 400; i++ {
			rec := Record{
				"a": int64(rng.Intn(8)),
				"b": fmt.Sprintf("v%d", rng.Intn(5)),
				"c": rng.Float64() * 100,
			}
			if rng.Intn(10) == 0 {
				delete(rec, "c")
			}
			if _, err := tx.Insert("r", rec); err != nil {
				return err
			}
		}
		// Punch holes.
		for i := 0; i < 60; i++ {
			id := int64(rng.Intn(400) + 1)
			if err := tx.Delete("r", id); err != nil && !errors.Is(err, ErrNotFound) {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.View(func(tx *Tx) error {
		for trial := 0; trial < 200; trial++ {
			var preds []Pred
			var checks []func(Record) bool
			if rng.Intn(2) == 0 {
				v := int64(rng.Intn(8))
				preds = append(preds, Eq("a", v))
				checks = append(checks, func(r Record) bool { return r["a"] == v })
			}
			if rng.Intn(2) == 0 {
				v1, v2 := fmt.Sprintf("v%d", rng.Intn(5)), fmt.Sprintf("v%d", rng.Intn(5))
				preds = append(preds, In("b", v1, v2))
				checks = append(checks, func(r Record) bool { return r["b"] == v1 || r["b"] == v2 })
			}
			if rng.Intn(2) == 0 {
				lo, hi := rng.Float64()*100, rng.Float64()*100
				if lo > hi {
					lo, hi = hi, lo
				}
				preds = append(preds, Range("c", lo, hi))
				checks = append(checks, func(r Record) bool {
					c, ok := r["c"].(float64)
					return ok && c >= lo && c <= hi
				})
			}
			q := Query{Table: "r", Where: preds, Desc: rng.Intn(2) == 0}
			want := naiveIDs(t, tx, "r", func(r Record) bool {
				for _, ck := range checks {
					if !ck(r) {
						return false
					}
				}
				return true
			})
			if q.Desc {
				for i, j := 0, len(want)-1; i < j; i, j = i+1, j-1 {
					want[i], want[j] = want[j], want[i]
				}
			}
			if lim := rng.Intn(3); lim > 0 {
				q.Limit = lim * 5
				if len(want) > q.Limit {
					want = want[:q.Limit]
				}
			}
			eqIDs(t, queryIDs(t, tx, q), want, fmt.Sprintf("trial %d (%+v)", trial, q))
		}
		return nil
	})
}

// TestQuerySnapshotUnderWrites is the -race fence for the engine: many
// goroutines stream queries (index, scan, desc, sorted) against pinned
// snapshots while a writer commits continuously into the same table.
// Every iterator must observe an internally consistent generation:
// within one transaction, repeated queries agree with each other.
func TestQuerySnapshotUnderWrites(t *testing.T) {
	s := queryStore(t, 400, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
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
			i++
			err := s.Update(func(tx *Tx) error {
				id := int64(i%400 + 1)
				// Flip the row between two projects; the generation marker
				// "gen" must move with it atomically.
				return tx.Put("sample", id, Record{
					"name": fmt.Sprintf("s%d", id), "project": int64(i%2 + 1),
					"species": "human", "grade": int64(i % 5), "weight": float64(i),
				})
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				_ = s.View(func(tx *Tx) error {
					// Two passes over the same snapshot must agree exactly,
					// however the writer races.
					q := Query{Table: "sample", Where: []Pred{Eq("project", int64(g%2+1))}}
					first := queryIDs(t, tx, q)
					second := queryIDs(t, tx, q)
					eqIDs(t, second, first, "snapshot stability")
					// A desc scan and a sorted query on the same snapshot
					// exercise the other paths under the race detector.
					queryIDs(t, tx, Query{Table: "sample", Desc: true, Limit: 25})
					queryIDs(t, tx, Query{Table: "sample", OrderBy: "weight", Limit: 10})
					return nil
				})
			}
		}(g)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestQueryRowsAfterTxEnd: like GetRef results, an iterator's yielded
// records stay valid snapshots after the transaction ends; the iterator
// itself may also finish draining (it reads only immutable state).
func TestQueryRowsAfterTxEnd(t *testing.T) {
	s := queryStore(t, 20, 2)
	tx, err := s.Begin(true)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tx.Query(Query{Table: "sample", Where: []Pred{Eq("project", int64(1))}})
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no first row")
	}
	first := rows.Record()
	tx.Rollback()
	rest, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) == 0 {
		t.Fatal("no rows after rollback")
	}
	if first.String("name") == "" {
		t.Error("first record invalidated")
	}
}

func TestPlanString(t *testing.T) {
	s := queryStore(t, 100, 10)
	_ = s.View(func(tx *Tx) error {
		p, err := tx.Explain(Query{
			Table: "sample",
			Where: []Pred{Eq("project", int64(2)), Eq("grade", int64(1))},
			Limit: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := "sample: index(project) est=10 residual=[grade] order=id limit=5"
		if p.String() != want {
			t.Errorf("plan string %q, want %q", p, want)
		}
		p, err = tx.Explain(Query{Table: "sample", Where: []Pred{Range("id", int64(10), int64(20))}, Desc: true})
		if err != nil {
			t.Fatal(err)
		}
		want = "sample: scan ids=[10,20] est=11 order=id desc"
		if p.String() != want {
			t.Errorf("plan string %q, want %q", p, want)
		}
		return nil
	})
}
