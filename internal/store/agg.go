package store

import (
	"fmt"
	"sort"
)

// This file implements aggregation pushdown: Count and GroupBy queries
// compiled and executed inside the planner against the transaction's
// pinned MVCC version, so reporting surfaces never materialize rows they
// only need to count. Three strategies exist, and Explain names the one
// chosen:
//
//   - count(maintained): a predicate-free count answered from the
//     version's incrementally maintained live counters (the table count
//     kept by the delta-merge commit path), adjusted by the overlay. O(1)
//     plus the overlay size.
//   - count(postings): a predicate-only count answered from committed
//     index postings lengths adjusted by the overlay's per-key deltas,
//     and a GroupBy over an indexed field answered by walking that
//     index's keys and postings directly. No row is ever read.
//   - scan+fold: residual predicates or value aggregates (Min/Max/Sum)
//     fall back to the streaming iterator with the aggregation folded
//     into it — rows stream through the fold, they are never collected
//     into a caller-side slice.

// AggFunc enumerates aggregate functions.
type AggFunc uint8

const (
	// AggCount counts matching rows.
	AggCount AggFunc = iota
	// AggMin yields the smallest value of the aggregated field among
	// matching rows that carry it (nil when none do).
	AggMin
	// AggMax is the mirror of AggMin.
	AggMax
	// AggSum sums the aggregated field over matching rows that carry it:
	// int64 for integer columns, float64 once any float participates.
	AggSum
)

// String returns the function's name as it appears in errors.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggSum:
		return "sum"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(f))
	}
}

// Agg is one requested aggregate output: a function over a field. Count
// takes no field; Min/Max/Sum require one (IDField aggregates the id).
type Agg struct {
	Func  AggFunc
	Field string
}

// Count returns the row-count aggregate.
func Count() Agg { return Agg{Func: AggCount} }

// Min returns the minimum-value aggregate over field.
func Min(field string) Agg { return Agg{Func: AggMin, Field: field} }

// Max returns the maximum-value aggregate over field.
func Max(field string) Agg { return Agg{Func: AggMax, Field: field} }

// Sum returns the sum aggregate over field.
func Sum(field string) Agg { return Agg{Func: AggSum, Field: field} }

// AggQuery is a Query plus an aggregation shape: an optional grouping
// field and the aggregate outputs to compute per group. Construct with
// Query.Count, Query.GroupBy or Query.Aggregate. OrderBy, Desc, Limit
// and Cursor must be zero — aggregates reduce, they do not paginate.
type AggQuery struct {
	Query   Query
	GroupBy string
	Aggs    []Agg
}

// Count turns the query into a single row count.
func (q Query) Count() AggQuery {
	return AggQuery{Query: q, Aggs: []Agg{Count()}}
}

// GroupBy turns the query into a grouped aggregation over field. With no
// aggs the per-group row count is computed.
func (q Query) GroupBy(field string, aggs ...Agg) AggQuery {
	if len(aggs) == 0 {
		aggs = []Agg{Count()}
	}
	return AggQuery{Query: q, GroupBy: field, Aggs: aggs}
}

// Aggregate turns the query into an ungrouped aggregation. With no aggs
// the row count is computed.
func (q Query) Aggregate(aggs ...Agg) AggQuery {
	if len(aggs) == 0 {
		aggs = []Agg{Count()}
	}
	return AggQuery{Query: q, Aggs: aggs}
}

// Aggregate strategy names as reported by Plan.Agg / Explain output.
const (
	// AggStrategyMaintained answers from the version's maintained live
	// counters without touching index or rows.
	AggStrategyMaintained = "count(maintained)"
	// AggStrategyPostings answers from index postings lengths (or an
	// index key walk for GroupBy) without reading any row.
	AggStrategyPostings = "count(postings)"
	// AggStrategyScanFold streams the planned row iterator and folds the
	// aggregation into it.
	AggStrategyScanFold = "scan+fold"
)

// GroupRow is one group of an aggregate result: the decoded group key
// (nil for the global group of an ungrouped aggregate) and one value per
// requested Agg, in request order — int for Count, int64/float64 for
// Sum, the field's value (or nil) for Min/Max.
type GroupRow struct {
	Key  any
	Aggs []any
}

// Count returns the group's first AggCount output, or 0 when none was
// requested — the common single-count accessor.
func (g GroupRow) Count() int {
	for _, v := range g.Aggs {
		if n, ok := v.(int); ok {
			return n
		}
	}
	return 0
}

// AggResult is an executed aggregate query: its groups ordered by key
// (missing-type rank, then value), and the plan that produced them.
type AggResult struct {
	// Groups holds one row per group. An ungrouped aggregate always has
	// exactly one group (Key nil), even over zero matching rows; a
	// grouped aggregate over zero rows has none.
	Groups []GroupRow

	plan Plan
}

// Plan returns the executed plan, strategy included — the same value
// ExplainAgg reports.
func (r *AggResult) Plan() Plan { return r.plan }

// plannedAgg is the executable form of an aggregate query: the
// underlying row plan (whose Plan carries the chosen strategy) plus the
// validated aggregation shape.
type plannedAgg struct {
	pq        *plannedQuery
	aggs      []Agg
	groupBy   string
	countOnly bool
}

// planAgg validates the aggregate query and picks the strategy:
//
//  1. a bare count with no predicates reads the maintained table counter;
//  2. a count whose plan is fully answered by a unique/secondary index
//     (no residuals) sums postings lengths; a pure per-group count over
//     an indexed field with no predicates walks that index's keys;
//  3. everything else folds the aggregation into the streaming iterator
//     the row planner would have driven anyway.
func (tx *Tx) planAgg(t *table, aq AggQuery) (*plannedAgg, error) {
	q := aq.Query
	bad := func(format string, args ...any) (*plannedAgg, error) {
		args = append(args, ErrBadQuery)
		return nil, fmt.Errorf("store: aggregate %s: "+format+": %w", append([]any{q.Table}, args...)...)
	}
	if q.OrderBy != "" || q.Desc || q.Limit != 0 || q.Cursor != 0 {
		return bad("order/limit/cursor do not apply to aggregates")
	}
	aggs := aq.Aggs
	if len(aggs) == 0 {
		aggs = []Agg{Count()}
	}
	for _, ag := range aggs {
		switch ag.Func {
		case AggCount:
			if ag.Field != "" {
				return bad("count takes no field (got %q)", ag.Field)
			}
		case AggMin, AggMax, AggSum:
			if ag.Field == "" {
				return bad("%s requires a field", ag.Func)
			}
		default:
			return bad("unknown aggregate %v", ag.Func)
		}
	}

	pq, err := tx.plan(t, q)
	if err != nil {
		return nil, err
	}
	countOnly := len(aggs) == 1 && aggs[0].Func == AggCount
	pa := &plannedAgg{pq: pq, aggs: aggs, groupBy: aq.GroupBy, countOnly: countOnly}
	p := &pq.plan
	p.GroupField = aq.GroupBy
	switch {
	case aq.GroupBy == "":
		switch {
		case countOnly && len(q.Where) == 0:
			p.Agg = AggStrategyMaintained
		case countOnly && len(pq.residuals) == 0 &&
			(p.Access == AccessUnique || p.Access == AccessIndex):
			p.Agg = AggStrategyPostings
		default:
			p.Agg = AggStrategyScanFold
		}
	default:
		_, grouped := t.indexes[aq.GroupBy]
		if countOnly && grouped && len(q.Where) == 0 {
			// Walk the grouping index's keys directly; postings lengths
			// are the per-group counts. The access fields describe the
			// walk, not a row driver.
			p.Agg = AggStrategyPostings
			p.Access = AccessIndex
			p.Field = aq.GroupBy
		} else {
			p.Agg = AggStrategyScanFold
		}
	}
	return pa, nil
}

// ExplainAgg plans the aggregate query without executing it and returns
// the Plan — strategy included — the executor would follow, on exactly
// the code path Tx.Aggregate runs.
func (tx *Tx) ExplainAgg(aq AggQuery) (Plan, error) {
	if tx.done {
		return Plan{}, ErrTxDone
	}
	t, err := tx.table(aq.Query.Table)
	if err != nil {
		return Plan{}, err
	}
	pa, err := tx.planAgg(t, aq)
	if err != nil {
		return Plan{}, err
	}
	return pa.pq.plan, nil
}

// Aggregate plans and executes an aggregate query against the
// transaction's pinned snapshot merged with its own pending writes. No
// strategy materializes the matching row set; the counting strategies
// never read a row at all.
func (tx *Tx) Aggregate(aq AggQuery) (*AggResult, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	t, err := tx.table(aq.Query.Table)
	if err != nil {
		return nil, err
	}
	pa, err := tx.planAgg(t, aq)
	if err != nil {
		return nil, err
	}
	res := &AggResult{plan: pa.pq.plan}
	switch pa.pq.plan.Agg {
	case AggStrategyMaintained:
		res.Groups = []GroupRow{{Aggs: []any{tx.liveCount(aq.Query.Table, t)}}}
	case AggStrategyPostings:
		if pa.groupBy == "" {
			n := tx.countKeys(aq.Query.Table, t, pa.pq.plan.Field, pa.pq.keys)
			res.Groups = []GroupRow{{Aggs: []any{n}}}
		} else {
			res.Groups = tx.groupWalk(aq.Query.Table, t, pa.groupBy)
		}
	default:
		groups, err := tx.aggFold(t, pa)
		if err != nil {
			return nil, err
		}
		res.Groups = groups
	}
	return res, nil
}

// QueryCount executes q.Count() and returns the single matching-row
// count — the convenience form reporting call sites use.
func (tx *Tx) QueryCount(q Query) (int, error) {
	res, err := tx.Aggregate(q.Count())
	if err != nil {
		return 0, err
	}
	return res.Groups[0].Count(), nil
}

// countKeys counts the rows holding any of the driver keys on an indexed
// field: committed postings lengths, with committed holders the overlay
// deletes or rewrites subtracted and pending writes holding a key added.
// O(keys + overlay); no row materialization.
func (tx *Tx) countKeys(tableName string, t *table, field string, keys []indexKey) int {
	ix := t.indexes[field]
	n := 0
	for _, key := range keys {
		n += len(ix.postings(key))
	}
	o := tx.pending[tableName]
	if o == nil || (len(o.writes) == 0 && len(o.deletes) == 0) {
		return n
	}
	for id := range o.deletes {
		if t.get(id).hasKey(field, keys) {
			n--
		}
	}
	for id, pr := range o.writes {
		if t.get(id).hasKey(field, keys) {
			n-- // rewritten: the old key occurrence leaves the count...
		}
		if pr.hasKey(field, keys) {
			n++ // ...and the pending state re-enters if it still holds one
		}
	}
	return n
}

// groupWalk answers a pure per-group count over an indexed field by
// walking the index's keys: each key's postings length is its group
// count, adjusted by the overlay's per-key deltas. Groups whose live
// count reaches zero are dropped; keys that exist only in the overlay
// are appended. O(distinct keys + overlay); no row is read.
func (tx *Tx) groupWalk(tableName string, t *table, field string) []GroupRow {
	ix := t.indexes[field]
	var delta map[indexKey]int
	if o := tx.pending[tableName]; o != nil && (len(o.writes) != 0 || len(o.deletes) != 0) {
		delta = make(map[indexKey]int)
		for id := range o.deletes {
			if k, ok := t.get(id).key(field); ok {
				delta[k]--
			}
		}
		for id, pr := range o.writes {
			if k, ok := t.get(id).key(field); ok {
				delta[k]--
			}
			if k, ok := pr.key(field); ok {
				delta[k]++
			}
		}
	}
	var groups []GroupRow
	ix.walkKeys(func(key indexKey, ids []int64) bool {
		n := len(ids)
		if delta != nil {
			if d, ok := delta[key]; ok {
				n += d
				delete(delta, key)
			}
		}
		if n > 0 {
			if v, ok := decodeKey(key); ok {
				groups = append(groups, GroupRow{Key: v, Aggs: []any{n}})
			}
		}
		return true
	})
	// Groups introduced solely by this transaction's overlay.
	for key, d := range delta {
		if d > 0 {
			if v, ok := decodeKey(key); ok {
				groups = append(groups, GroupRow{Key: v, Aggs: []any{d}})
			}
		}
	}
	sortGroups(groups)
	return groups
}

// aggCell is the folding state of one Agg within one group.
type aggCell struct {
	n        int     // AggCount
	sumI     int64   // AggSum: integer accumulator
	sumF     float64 // AggSum: float accumulator
	sumFloat bool    // AggSum: a float64 value participated
	ord      any     // AggMin/AggMax: current extremum
}

// aggAcc is one group's accumulator.
type aggAcc struct {
	key   any
	cells []aggCell
}

// aggFold executes the scan+fold strategy: the planner-driven streaming
// iterator (index postings, point ids or bounded scan — whatever the row
// plan chose) with the aggregation folded into the loop. Rows whose
// grouping value is missing or unindexable belong to no group, matching
// the index-walk semantics.
func (tx *Tx) aggFold(t *table, pa *plannedAgg) ([]GroupRow, error) {
	rows := &Rows{tx: tx, t: t, pq: pa.pq, q: pa.pq.query()}
	rows.start()
	var accs map[string]*aggAcc
	var global *aggAcc
	if pa.groupBy == "" {
		global = &aggAcc{cells: make([]aggCell, len(pa.aggs))}
	} else {
		accs = make(map[string]*aggAcc)
	}
	var kbuf [64]byte
	for rows.Next() {
		rec := rows.Record()
		a := global
		if pa.groupBy != "" {
			// The group key is built without boxing the value.
			gf, ok := rec.field(pa.groupBy)
			if !ok {
				continue
			}
			k, ok := gf.appendKey(kbuf[:0])
			if !ok {
				continue
			}
			if a = accs[string(k)]; a == nil {
				a = &aggAcc{key: gf.value(), cells: make([]aggCell, len(pa.aggs))}
				accs[string(k)] = a
			}
		}
		for i, ag := range pa.aggs {
			c := &a.cells[i]
			if ag.Func == AggCount {
				c.n++
				continue
			}
			v, ok := rec.field(ag.Field)
			if !ok {
				continue
			}
			switch ag.Func {
			case AggSum:
				switch v.kind {
				case kindInt:
					c.sumI += v.int()
				case kindFloat:
					c.sumF += v.float()
					c.sumFloat = true
				}
			case AggMin:
				if c.ord == nil || v.order(c.ord) < 0 {
					c.ord = v.value()
				}
			case AggMax:
				if c.ord == nil || v.order(c.ord) > 0 {
					c.ord = v.value()
				}
			}
		}
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	if global != nil {
		return []GroupRow{finalizeAcc(pa.aggs, global)}, nil
	}
	groups := make([]GroupRow, 0, len(accs))
	for _, a := range accs {
		groups = append(groups, finalizeAcc(pa.aggs, a))
	}
	sortGroups(groups)
	return groups, nil
}

// finalizeAcc converts an accumulator into its result row.
func finalizeAcc(aggs []Agg, a *aggAcc) GroupRow {
	out := make([]any, len(aggs))
	for i, ag := range aggs {
		c := &a.cells[i]
		switch ag.Func {
		case AggCount:
			out[i] = c.n
		case AggSum:
			if c.sumFloat {
				out[i] = c.sumF + float64(c.sumI)
			} else {
				out[i] = c.sumI
			}
		case AggMin, AggMax:
			out[i] = c.ord
		}
	}
	return GroupRow{Key: a.key, Aggs: out}
}

// sortGroups orders result groups deterministically by key, with the
// same total order the sort path uses for field values.
func sortGroups(groups []GroupRow) {
	sort.Slice(groups, func(i, j int) bool {
		return compareFieldValues(groups[i].Key, groups[j].Key) < 0
	})
}

// query reconstructs the Query an already-planned aggregate executes its
// row iterator with. Pagination fields are zero by aggregate validation.
func (pq *plannedQuery) query() Query {
	return Query{Table: pq.plan.Table}
}
