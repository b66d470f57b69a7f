package store

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scanFoldCount is the hand-rolled baseline every counting strategy must
// reproduce: the naive GetRef walk plus Go-side predicate filtering.
func scanFoldCount(t *testing.T, tx *Tx, table string, keep func(Record) bool) int {
	t.Helper()
	return len(naiveIDs(t, tx, table, keep))
}

// scanFoldGroups is the grouped baseline: naive walk, bucket by the field's
// value, drop rows without an indexable grouping value.
func scanFoldGroups(t *testing.T, tx *Tx, table, field string, keep func(Record) bool) map[indexKey]int {
	t.Helper()
	out := make(map[indexKey]int)
	for _, r := range naiveRows(t, tx, table) {
		if keep == nil || keep(r) {
			if k, ok := keyFor(r[field]); ok {
				out[k]++
			}
		}
	}
	return out
}

func groupsToMap(t *testing.T, groups []GroupRow) map[indexKey]int {
	t.Helper()
	out := make(map[indexKey]int, len(groups))
	for _, g := range groups {
		k, ok := keyFor(g.Key)
		if !ok {
			t.Fatalf("group key %v (%T) is not indexable", g.Key, g.Key)
		}
		if _, dup := out[k]; dup {
			t.Fatalf("duplicate group key %v", g.Key)
		}
		out[k] = g.Count()
	}
	return out
}

func aggPlan(t *testing.T, tx *Tx, aq AggQuery) Plan {
	t.Helper()
	p, err := tx.ExplainAgg(aq)
	if err != nil {
		t.Fatalf("ExplainAgg: %v", err)
	}
	return p
}

func TestAggStrategySelection(t *testing.T) {
	s := queryStore(t, 200, 7)
	defer s.Close()
	err := s.View(func(tx *Tx) error {
		cases := []struct {
			name string
			aq   AggQuery
			want string
		}{
			{"bare count", Query{Table: "sample"}.Count(), AggStrategyMaintained},
			{"indexed eq count", Query{Table: "sample", Where: []Pred{Eq("species", "human")}}.Count(), AggStrategyPostings},
			{"unique eq count", Query{Table: "sample", Where: []Pred{Eq("name", "s7")}}.Count(), AggStrategyPostings},
			{"indexed in count", Query{Table: "sample", Where: []Pred{In("project", int64(1), int64(2))}}.Count(), AggStrategyPostings},
			{"residual count", Query{Table: "sample", Where: []Pred{Eq("species", "human"), Eq("grade", int64(2))}}.Count(), AggStrategyScanFold},
			{"unindexed count", Query{Table: "sample", Where: []Pred{Eq("grade", int64(2))}}.Count(), AggStrategyScanFold},
			{"group indexed", Query{Table: "sample"}.GroupBy("species"), AggStrategyPostings},
			{"group unindexed", Query{Table: "sample"}.GroupBy("grade"), AggStrategyScanFold},
			{"group with where", Query{Table: "sample", Where: []Pred{Eq("project", int64(1))}}.GroupBy("species"), AggStrategyScanFold},
			{"group value agg", Query{Table: "sample"}.GroupBy("species", Count(), Sum("weight")), AggStrategyScanFold},
			{"ungrouped sum", Query{Table: "sample"}.Aggregate(Sum("weight")), AggStrategyScanFold},
		}
		for _, c := range cases {
			if got := aggPlan(t, tx, c.aq).Agg; got != c.want {
				t.Errorf("%s: strategy %q, want %q", c.name, got, c.want)
			}
		}

		// The executed plan is the explained plan.
		for _, c := range cases {
			res, err := tx.Aggregate(c.aq)
			if err != nil {
				t.Fatalf("%s: Aggregate: %v", c.name, err)
			}
			if res.Plan().Agg != c.want {
				t.Errorf("%s: executed strategy %q, want %q", c.name, res.Plan().Agg, c.want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggExplainString(t *testing.T) {
	s := queryStore(t, 50, 5)
	defer s.Close()
	err := s.View(func(tx *Tx) error {
		for _, c := range []struct {
			aq   AggQuery
			want []string
		}{
			{Query{Table: "sample"}.Count(), []string{"sample: agg=count(maintained)", "est="}},
			{Query{Table: "sample", Where: []Pred{Eq("species", "human")}}.Count(),
				[]string{"agg=count(postings)", "via index(species)"}},
			{Query{Table: "sample"}.GroupBy("species"),
				[]string{"agg=count(postings)", "by=species", "via index(species)"}},
			{Query{Table: "sample", Where: []Pred{Eq("species", "human"), Eq("grade", int64(1))}}.Count(),
				[]string{"agg=scan+fold", "via index(species)", "residual=[grade]"}},
		} {
			got := aggPlan(t, tx, c.aq).String()
			for _, frag := range c.want {
				if !strings.Contains(got, frag) {
					t.Errorf("plan %q missing %q", got, frag)
				}
			}
			if strings.Contains(got, "order=") || strings.Contains(got, "limit=") {
				t.Errorf("aggregate plan %q leaks order/limit rendering", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggValidation(t *testing.T) {
	s := queryStore(t, 10, 2)
	defer s.Close()
	err := s.View(func(tx *Tx) error {
		bad := []AggQuery{
			{Query: Query{Table: "sample", Limit: 5}, Aggs: []Agg{Count()}},
			{Query: Query{Table: "sample", OrderBy: "name"}, Aggs: []Agg{Count()}},
			{Query: Query{Table: "sample", Cursor: 3}, Aggs: []Agg{Count()}},
			{Query: Query{Table: "sample", Desc: true}, Aggs: []Agg{Count()}},
			{Query: Query{Table: "sample"}, Aggs: []Agg{{Func: AggCount, Field: "weight"}}},
			{Query: Query{Table: "sample"}, Aggs: []Agg{{Func: AggSum}}},
			{Query: Query{Table: "sample"}, Aggs: []Agg{{Func: AggFunc(42)}}},
		}
		for i, aq := range bad {
			if _, err := tx.Aggregate(aq); !errors.Is(err, ErrBadQuery) {
				t.Errorf("case %d: got %v, want ErrBadQuery", i, err)
			}
			if _, err := tx.ExplainAgg(aq); !errors.Is(err, ErrBadQuery) {
				t.Errorf("case %d: Explain got %v, want ErrBadQuery", i, err)
			}
		}
		if _, err := tx.Aggregate(Query{Table: "nope"}.Count()); !errors.Is(err, ErrNoTable) {
			t.Errorf("unknown table: got %v, want ErrNoTable", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggCountEquivalence(t *testing.T) {
	s := queryStore(t, 500, 9)
	defer s.Close()
	err := s.View(func(tx *Tx) error {
		cases := []struct {
			q    Query
			keep func(Record) bool
		}{
			{Query{Table: "sample"}, func(Record) bool { return true }},
			{Query{Table: "sample", Where: []Pred{Eq("species", "human")}},
				func(r Record) bool { return r["species"] == "human" }},
			{Query{Table: "sample", Where: []Pred{In("project", int64(2), int64(5))}},
				func(r Record) bool { return r["project"] == int64(2) || r["project"] == int64(5) }},
			{Query{Table: "sample", Where: []Pred{Eq("species", "mouse"), Eq("grade", int64(3))}},
				func(r Record) bool { return r["species"] == "mouse" && r["grade"] == int64(3) }},
			{Query{Table: "sample", Where: []Pred{Eq("name", "s123")}},
				func(r Record) bool { return r["name"] == "s123" }},
			{Query{Table: "sample", Where: []Pred{Eq("species", "missing")}},
				func(Record) bool { return false }},
		}
		for i, c := range cases {
			got, err := tx.QueryCount(c.q)
			if err != nil {
				t.Fatalf("case %d: QueryCount: %v", i, err)
			}
			if want := scanFoldCount(t, tx, "sample", c.keep); got != want {
				t.Errorf("case %d: count %d, want %d", i, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggGroupWalkEquivalence(t *testing.T) {
	s := queryStore(t, 400, 11)
	defer s.Close()
	err := s.View(func(tx *Tx) error {
		for _, field := range []string{"species", "project", "grade"} {
			res, err := tx.Aggregate(Query{Table: "sample"}.GroupBy(field))
			if err != nil {
				t.Fatalf("GroupBy(%s): %v", field, err)
			}
			got := groupsToMap(t, res.Groups)
			want := scanFoldGroups(t, tx, "sample", field, nil)
			if len(got) != len(want) {
				t.Errorf("GroupBy(%s): %d groups, want %d", field, len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Errorf("GroupBy(%s): key %s count %d, want %d", field, k, got[k], n)
				}
			}
			// Groups come back ordered by key.
			for i := 1; i < len(res.Groups); i++ {
				if compareFieldValues(res.Groups[i-1].Key, res.Groups[i].Key) >= 0 {
					t.Errorf("GroupBy(%s): groups not strictly ordered at %d (%v >= %v)",
						field, i, res.Groups[i-1].Key, res.Groups[i].Key)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggValueAggregates(t *testing.T) {
	s := queryStore(t, 300, 6)
	defer s.Close()
	err := s.View(func(tx *Tx) error {
		res, err := tx.Aggregate(Query{Table: "sample"}.Aggregate(Count(), Sum("weight"), Min("weight"), Max("weight"), Max("id")))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Groups) != 1 {
			t.Fatalf("ungrouped aggregate: %d groups, want 1", len(res.Groups))
		}
		g := res.Groups[0]
		var wantSum float64
		for _, r := range naiveRows(t, tx, "sample") {
			wantSum += r["weight"].(float64)
		}
		if g.Aggs[0].(int) != 300 {
			t.Errorf("count %v, want 300", g.Aggs[0])
		}
		if got := g.Aggs[1].(float64); got != wantSum {
			t.Errorf("sum %v, want %v", got, wantSum)
		}
		if got := g.Aggs[2].(float64); got != 1 {
			t.Errorf("min %v, want 1", got)
		}
		if got := g.Aggs[3].(float64); got != 300 {
			t.Errorf("max %v, want 300", got)
		}
		if got := g.Aggs[4].(int64); got != 300 {
			t.Errorf("max id %v, want 300", got)
		}

		// Integer sums stay int64; Min/Max over an absent field are nil.
		res, err = tx.Aggregate(Query{Table: "sample", Where: []Pred{Eq("species", "human")}}.Aggregate(Sum("grade"), Min("nope")))
		if err != nil {
			t.Fatal(err)
		}
		var wantGrade int64
		for _, r := range naiveRows(t, tx, "sample") {
			if r["species"] == "human" {
				wantGrade += r["grade"].(int64)
			}
		}
		if got := res.Groups[0].Aggs[0].(int64); got != wantGrade {
			t.Errorf("sum(grade) %v, want %v", got, wantGrade)
		}
		if res.Groups[0].Aggs[1] != nil {
			t.Errorf("min over absent field = %v, want nil", res.Groups[0].Aggs[1])
		}

		// An ungrouped aggregate over zero rows still yields its one group.
		res, err = tx.Aggregate(Query{Table: "sample", Where: []Pred{Eq("species", "missing")}}.Aggregate(Count(), Sum("weight")))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Groups) != 1 || res.Groups[0].Count() != 0 {
			t.Fatalf("empty aggregate: %+v, want one zero group", res.Groups)
		}
		// A grouped aggregate over zero rows has no groups.
		res, err = tx.Aggregate(Query{Table: "sample", Where: []Pred{Eq("species", "missing")}}.GroupBy("project"))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Groups) != 0 {
			t.Fatalf("empty grouped aggregate: %d groups, want 0", len(res.Groups))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAggOverlayVisibility verifies every strategy sees the transaction's
// own pending writes: inserts, deletes and rewrites that move rows
// between keys, including groups that exist only in the overlay.
func TestAggOverlayVisibility(t *testing.T) {
	s := queryStore(t, 120, 4)
	defer s.Close()
	err := s.Update(func(tx *Tx) error {
		// Delete two humans, rewrite a mouse into a human, insert a frog.
		humanIDs := checkEqAgainstOracle(t, tx, "sample", "species", "human", "setup")
		mouseIDs := checkEqAgainstOracle(t, tx, "sample", "species", "mouse", "setup")
		for _, id := range humanIDs[:2] {
			if err := tx.Delete("sample", id); err != nil {
				t.Fatal(err)
			}
		}
		rewrite, err := tx.Get("sample", mouseIDs[0])
		if err != nil {
			t.Fatal(err)
		}
		rewrite["species"] = "human"
		if err := tx.Put("sample", mouseIDs[0], rewrite); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Insert("sample", Record{"name": "frog1", "project": int64(1), "species": "frog", "grade": int64(0), "weight": 1.5}); err != nil {
			t.Fatal(err)
		}

		// Maintained table count: 120 - 2 deletes + 1 insert.
		if n, err := tx.QueryCount(Query{Table: "sample"}); err != nil || n != 119 {
			t.Fatalf("live count = %d (%v), want 119", n, err)
		}
		// Postings count adjusted by the overlay.
		wantHuman := len(humanIDs) - 2 + 1
		aq := Query{Table: "sample", Where: []Pred{Eq("species", "human")}}.Count()
		if got := aggPlan(t, tx, aq.Query.Count()).Agg; got != AggStrategyPostings {
			t.Fatalf("overlay count strategy %q", got)
		}
		if n, err := tx.QueryCount(aq.Query); err != nil || n != wantHuman {
			t.Fatalf("human count = %d (%v), want %d", n, err, wantHuman)
		}
		if n, err := tx.QueryCount(Query{Table: "sample", Where: []Pred{Eq("species", "mouse")}}); err != nil || n != len(mouseIDs)-1 {
			t.Fatalf("mouse count = %d (%v), want %d", n, err, len(mouseIDs)-1)
		}
		// Overlay-only group surfaces in the walk; all groups match scan.
		res, err := tx.Aggregate(Query{Table: "sample"}.GroupBy("species"))
		if err != nil {
			t.Fatal(err)
		}
		got := groupsToMap(t, res.Groups)
		if got[indexKey("s:frog")] != 1 {
			t.Fatalf("overlay-only group frog = %d, want 1", got[indexKey("s:frog")])
		}
		want := make(map[indexKey]int)
		rows, err := tx.Query(Query{Table: "sample"})
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
			if k, ok := keyFor(rows.Record().Get("species")); ok {
				want[k]++
			}
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("group count %d, want %d", len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Errorf("group %s = %d, want %d", k, got[k], n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// After commit the same numbers come from the committed structures.
	err = s.View(func(tx *Tx) error {
		if n, err := tx.QueryCount(Query{Table: "sample"}); err != nil || n != 119 {
			t.Fatalf("committed live count = %d (%v), want 119", n, err)
		}
		res, err := tx.Aggregate(Query{Table: "sample"}.GroupBy("species"))
		if err != nil {
			t.Fatal(err)
		}
		got := groupsToMap(t, res.Groups)
		want := scanFoldGroups(t, tx, "sample", "species", nil)
		for k, n := range want {
			if got[k] != n {
				t.Errorf("committed group %s = %d, want %d", k, got[k], n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAggMaintainedCountersDurable verifies the maintained counters the
// counting strategies read — the table live count and the per-key
// postings lengths — survive a WAL-replay reopen in exact agreement with
// a ground-truth scan.
func TestAggMaintainedCountersDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DurabilityOptions{Sync: SyncAlways, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("w"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("w", "state", false); err != nil {
		t.Fatal(err)
	}
	states := []string{"pending", "processing", "ready", "failed"}
	rng := rand.New(rand.NewSource(42))
	live := 0
	for round := 0; round < 5; round++ {
		err := s.Update(func(tx *Tx) error {
			for i := 0; i < 60; i++ {
				if _, err := tx.Insert("w", Record{"state": states[rng.Intn(len(states))]}); err != nil {
					return err
				}
				live++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Churn: delete a few, flip a few states.
		err = s.Update(func(tx *Tx) error {
			ids, err := lookupIDs(tx, "w", "state", states[rng.Intn(len(states))])
			if err != nil || len(ids) < 4 {
				return err
			}
			for _, id := range ids[:2] {
				if err := tx.Delete("w", id); err != nil {
					return err
				}
				live--
			}
			for _, id := range ids[2:4] {
				r, err := tx.Get("w", id)
				if err != nil {
					return err
				}
				r["state"] = states[rng.Intn(len(states))]
				if err := tx.Put("w", id, r); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	check := func(s *Store, phase string) {
		t.Helper()
		err := s.View(func(tx *Tx) error {
			if n := tx.Count("w"); n != live {
				t.Errorf("%s: maintained count %d, want %d", phase, n, live)
			}
			res, err := tx.Aggregate(Query{Table: "w"}.GroupBy("state"))
			if err != nil {
				return err
			}
			if res.Plan().Agg != AggStrategyPostings {
				t.Errorf("%s: strategy %q", phase, res.Plan().Agg)
			}
			got := groupsToMap(t, res.Groups)
			want := scanFoldGroups(t, tx, "w", "state", nil)
			if len(got) != len(want) {
				t.Errorf("%s: %d groups, want %d", phase, len(got), len(want))
			}
			total := 0
			for k, n := range want {
				if got[k] != n {
					t.Errorf("%s: group %s = %d, want %d", phase, k, got[k], n)
				}
				total += n
			}
			if total != live {
				t.Errorf("%s: groups sum to %d, want %d", phase, total, live)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	check(s, "before close")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, DurabilityOptions{Sync: SyncAlways, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Schema is the caller's to re-register after Open (the core wiring
	// does this); CreateIndex rebuilds postings from the recovered rows.
	if err := s.CreateIndex("w", "state", false); err != nil {
		t.Fatal(err)
	}
	check(s, "after recovery")
}

// TestAggMaintainedCountersReplica verifies a follower that applies raw
// replication frames reproduces the same maintained counters the primary
// reports, commit by commit.
func TestAggMaintainedCountersReplica(t *testing.T) {
	primary := newTestStore(t, "w")
	if err := primary.CreateIndex("w", "state", false); err != nil {
		t.Fatal(err)
	}
	replica := newTestStore(t, "w")
	if err := replica.CreateIndex("w", "state", false); err != nil {
		t.Fatal(err)
	}
	replica.SetReplica(true)
	sub, err := primary.SubscribeCommits(64)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	states := []string{"pending", "processing", "ready"}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 8; round++ {
		err := primary.Update(func(tx *Tx) error {
			for i := 0; i < 20; i++ {
				if _, err := tx.Insert("w", Record{"state": states[rng.Intn(len(states))]}); err != nil {
					return err
				}
			}
			ids, err := lookupIDs(tx, "w", "state", states[rng.Intn(len(states))])
			if err != nil {
				return err
			}
			if len(ids) > 3 {
				if err := tx.Delete("w", ids[0]); err != nil {
					return err
				}
				r, err := tx.Get("w", ids[1])
				if err != nil {
					return err
				}
				r["state"] = states[rng.Intn(len(states))]
				if err := tx.Put("w", ids[1], r); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for len(sub.C) > 0 {
		frame := <-sub.C
		if _, err := replica.ApplyReplicated(frame.Payload); err != nil {
			t.Fatal(err)
		}
	}

	var want, got map[indexKey]int
	var wantCount, gotCount int
	if err := primary.View(func(tx *Tx) error {
		wantCount = tx.Count("w")
		res, err := tx.Aggregate(Query{Table: "w"}.GroupBy("state"))
		if err != nil {
			return err
		}
		want = groupsToMap(t, res.Groups)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := replica.View(func(tx *Tx) error {
		gotCount = tx.Count("w")
		res, err := tx.Aggregate(Query{Table: "w"}.GroupBy("state"))
		if err != nil {
			return err
		}
		got = groupsToMap(t, res.Groups)
		// Ground truth on the replica's own structures.
		truth := scanFoldGroups(t, tx, "w", "state", nil)
		for k, n := range truth {
			if got[k] != n {
				t.Errorf("replica group %s = %d, scan says %d", k, got[k], n)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if gotCount != wantCount {
		t.Errorf("replica count %d, primary %d", gotCount, wantCount)
	}
	if len(got) != len(want) {
		t.Fatalf("replica %d groups, primary %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("group %s: replica %d, primary %d", k, got[k], n)
		}
	}
}

// TestAggregateUnderWriterLoad hammers aggregates from readers while a
// writer churns rows, checking snapshot-internal consistency: within one
// transaction the grouped counts must sum to the live count, whatever
// version it pinned. Run with -race this also proves the lock-free read
// path.
func TestAggregateUnderWriterLoad(t *testing.T) {
	s := queryStore(t, 200, 5)
	defer s.Close()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		species := []string{"human", "mouse", "arabidopsis", "rat"}
		for i := 0; !stop.Load(); i++ {
			err := s.Update(func(tx *Tx) error {
				if _, err := tx.Insert("sample", Record{
					"name":    fmt.Sprintf("load-%d", i),
					"project": int64(rng.Intn(5) + 1),
					"species": species[rng.Intn(len(species))],
					"grade":   int64(rng.Intn(5)),
					"weight":  rng.Float64(),
				}); err != nil {
					return err
				}
				ids, err := lookupIDs(tx, "sample", "species", species[rng.Intn(len(species))])
				if err != nil {
					return err
				}
				if len(ids) > 50 {
					return tx.Delete("sample", ids[rng.Intn(len(ids))])
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		err := s.View(func(tx *Tx) error {
			total, err := tx.QueryCount(Query{Table: "sample"})
			if err != nil {
				return err
			}
			res, err := tx.Aggregate(Query{Table: "sample"}.GroupBy("species"))
			if err != nil {
				return err
			}
			sum := 0
			for _, g := range res.Groups {
				sum += g.Count()
			}
			if sum != total {
				t.Errorf("groups sum %d != live count %d within one snapshot", sum, total)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}
