package store

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// naiveRows is the reference every Query result in this package is checked
// against: ids 1, 2, 3… through GetRef until Count(table) live rows have
// been seen. It shares nothing with the executor — no iterator, no merge,
// no index — so the planner is never checked against itself.
func naiveRows(t testing.TB, tx *Tx, table string) []Record {
	t.Helper()
	var out []Record
	for id, n := int64(1), tx.Count(table); len(out) < n; id++ {
		r, err := tx.GetRef(table, id)
		if err == nil {
			out = append(out, r.Record())
		} else if !errors.Is(err, ErrNotFound) || id > 1<<22 {
			t.Fatalf("naive walk of %s at id %d (%d of %d rows seen): %v", table, id, len(out), n, err)
		}
	}
	return out
}

// naiveIDs returns the ids of the naive walk's rows that keep accepts, in
// ascending order; a nil keep accepts every row.
func naiveIDs(t testing.TB, tx *Tx, table string, keep func(Record) bool) []int64 {
	t.Helper()
	var ids []int64
	for _, r := range naiveRows(t, tx, table) {
		if keep == nil || keep(r) {
			ids = append(ids, r.ID())
		}
	}
	return ids
}

// drainIDs runs q and drains it with IDs, returning errors instead of
// failing the test, so goroutines other than the test's own can use it.
func drainIDs(tx *Tx, q Query) ([]int64, error) {
	rows, err := tx.Query(q)
	if err != nil {
		return nil, err
	}
	return rows.IDs()
}

// lookupIDs is drainIDs over a one-predicate equality query.
func lookupIDs(tx *Tx, table, field string, value any) ([]int64, error) {
	return drainIDs(tx, Query{Table: table, Where: []Pred{Eq(field, value)}})
}

func reversed(ids []int64) []int64 {
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[len(ids)-1-i] = id
	}
	return out
}

// checkAgainstOracle runs the id-ordered read shapes — full ascending,
// Desc, Cursor pages both ways and a Range("id") window — over the table
// and compares each with the naive walk. It is what the overlay, quick and
// index tests call after every mutation step.
func checkAgainstOracle(t testing.TB, tx *Tx, table, label string) {
	t.Helper()
	want := naiveIDs(t, tx, table, nil)
	eqIDs(t, queryIDs(t, tx, Query{Table: table}), want, label+": ascending")
	eqIDs(t, queryIDs(t, tx, Query{Table: table, Desc: true}), reversed(want), label+": desc")
	for _, desc := range []bool{false, true} {
		var paged []int64
		for cursor := int64(0); ; {
			page := queryIDs(t, tx, Query{Table: table, Desc: desc, Cursor: cursor, Limit: 7})
			if len(page) == 0 {
				break
			}
			paged = append(paged, page...)
			cursor = page[len(page)-1]
		}
		exp := want
		if desc {
			exp = reversed(want)
		}
		eqIDs(t, paged, exp, label+": cursor pages")
	}
	if len(want) >= 3 {
		lo, hi := want[1], want[len(want)-2]
		eqIDs(t, queryIDs(t, tx, Query{Table: table, Where: []Pred{Range(IDField, lo, hi)}}),
			want[1:len(want)-1], label+": id range")
	}
}

// checkEqAgainstOracle compares the Eq(field, value) query, ascending and
// Desc, with the naive walk filtered Go-side, and returns the ascending ids.
func checkEqAgainstOracle(t testing.TB, tx *Tx, table, field string, value any, label string) []int64 {
	t.Helper()
	want := naiveIDs(t, tx, table, func(r Record) bool { return r[field] == value })
	q := Query{Table: table, Where: []Pred{Eq(field, value)}}
	got := queryIDs(t, tx, q)
	eqIDs(t, got, want, fmt.Sprintf("%s: %s=%v", label, field, value))
	q.Desc = true
	eqIDs(t, queryIDs(t, tx, q), reversed(want), fmt.Sprintf("%s: %s=%v desc", label, field, value))
	return got
}

// TestTxReadSurface fences the read API: every exported method of *Tx is
// listed here, so re-growing a convenience read (a Find, a First, a Scan)
// is a one-line diff a reviewer sees. Multi-row reads go through Query,
// Aggregate and QueryCount — the store has no other merge-walk or index
// resolver to keep in step with the overlay.
func TestTxReadSurface(t *testing.T) {
	want := []string{
		// reads
		"Aggregate", "Count", "Exists", "Explain", "ExplainAgg", "Get", "GetRef",
		"Query", "QueryCount", "Snapshot", "TableSeq", "Tables",
		// writes and lifecycle
		"Commit", "Delete", "Insert", "Put", "Rollback",
	}
	sort.Strings(want)
	var got []string
	typ := reflect.TypeOf(&Tx{})
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name) // exported only, sorted by name
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exported methods of *Tx:\n got %v\nwant %v", got, want)
	}
}
