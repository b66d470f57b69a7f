package store

import (
	"fmt"
	"sort"
	"time"
)

// This file implements the declarative query engine: a Query value is
// compiled against a transaction's pinned MVCC version into a streaming,
// zero-copy Rows iterator. The planner (plan.go) picks the cheapest
// access path — unique-index point lookup, secondary-index postings, or
// an ordered id-range scan — and pushes every predicate it cannot answer
// into the iterator as a residual filter. Results stream in ascending
// (or, with Desc, descending) id order unless OrderBy names another
// field, in which case the engine materializes and sorts.
//
// The engine is the single planned path behind the typed listing methods
// in model, the task lists, the audit queries and the portal's filtered
// browse endpoint; docs/query.md is the user-facing contract.

// Op enumerates predicate operators.
type Op uint8

const (
	// OpEq matches rows whose field equals Value.
	OpEq Op = iota
	// OpIn matches rows whose field equals any element of Values.
	OpIn
	// OpRange matches rows whose field lies in [Min, Max]; a nil bound
	// is unbounded on that side.
	OpRange
)

// String returns the operator's name.
func (op Op) String() string {
	switch op {
	case OpEq:
		return "eq"
	case OpIn:
		return "in"
	case OpRange:
		return "range"
	default:
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
}

// Pred is one predicate of a query's Where clause. Construct with Eq, In,
// InIDs or Range.
type Pred struct {
	// Field is the record field the predicate constrains; the reserved
	// IDField ("id") addresses the record id.
	Field string
	// Op selects the operator and which value fields apply.
	Op Op
	// Value is the OpEq comparand.
	Value any
	// Values are the OpIn comparands.
	Values []any
	// Min and Max are the inclusive OpRange bounds; nil = unbounded.
	Min, Max any
}

// Eq returns a predicate matching rows whose field equals value. Equality
// is type-strict, matching index semantics: int64(1) never equals "1".
func Eq(field string, value any) Pred {
	return Pred{Field: field, Op: OpEq, Value: value}
}

// In returns a predicate matching rows whose field equals any of values.
// An empty value set matches nothing.
func In(field string, values ...any) Pred {
	return Pred{Field: field, Op: OpIn, Values: values}
}

// InIDs is In over a list of int64 values — the shape of a foreign-key
// batch ("extracts whose sample is one of these").
func InIDs(field string, ids []int64) Pred {
	vs := make([]any, len(ids))
	for i, id := range ids {
		vs[i] = id
	}
	return Pred{Field: field, Op: OpIn, Values: vs}
}

// Range returns a predicate matching rows whose field lies in [min, max].
// A nil bound is unbounded on that side. Comparable types are int64,
// float64 (mutually comparable), string and time.Time.
func Range(field string, min, max any) Pred {
	return Pred{Field: field, Op: OpRange, Min: min, Max: max}
}

// Query is a declarative read over one table, executed against the
// transaction's pinned snapshot by Tx.Query.
type Query struct {
	// Table names the queried table.
	Table string
	// Where conjoins predicates; all must match.
	Where []Pred
	// OrderBy names the ordering field. Empty or IDField streams in
	// structural id order; any other field materializes and sorts.
	OrderBy string
	// Desc reverses the order.
	Desc bool
	// Limit caps the number of rows yielded; 0 = unlimited.
	Limit int
	// Cursor resumes a paginated id-ordered query strictly after
	// (Desc: strictly before) the given id — the keyset cursor. 0 starts
	// from the beginning. Only valid with id ordering.
	Cursor int64
}

// compiledPred is a validated predicate ready for per-row evaluation:
// Eq/In values are canonicalized to index keys (or ids for the IDField)
// exactly once.
type compiledPred struct {
	field string
	op    Op
	keys  []indexKey // Eq/In on a regular field
	ids   []int64    // Eq/In on IDField, sorted ascending, deduped
	min   any        // Range bounds
	max   any
	// consumed marks a predicate folded into the access path itself
	// (Range("id") tightening a scan window) — fully answered, never
	// re-evaluated per row.
	consumed bool
}

// compilePred validates p and canonicalizes its comparands.
func compilePred(tableName string, p Pred) (compiledPred, error) {
	cp := compiledPred{field: p.Field, op: p.Op}
	bad := func(format string, args ...any) (compiledPred, error) {
		args = append(args, ErrBadQuery)
		return compiledPred{}, fmt.Errorf("store: query %s: "+format+": %w", append([]any{tableName}, args...)...)
	}
	if p.Field == "" {
		return bad("predicate with empty field")
	}
	switch p.Op {
	case OpEq, OpIn:
		values := p.Values
		if p.Op == OpEq {
			values = []any{p.Value}
		}
		for _, v := range values {
			if p.Field == IDField {
				id, ok := v.(int64)
				if !ok {
					return bad("field id compared to %T", v)
				}
				cp.ids = append(cp.ids, id)
				continue
			}
			key, ok := keyFor(v)
			if !ok {
				return bad("field %q compared to unindexable %T", p.Field, v)
			}
			cp.keys = append(cp.keys, key)
		}
		if p.Field == IDField {
			sort.Slice(cp.ids, func(i, j int) bool { return cp.ids[i] < cp.ids[j] })
			cp.ids = dedupeSortedIDs(cp.ids)
		} else {
			cp.keys = dedupeKeys(cp.keys)
		}
	case OpRange:
		if p.Min == nil && p.Max == nil {
			return bad("range on %q with no bounds", p.Field)
		}
		for _, v := range []any{p.Min, p.Max} {
			if v == nil {
				continue
			}
			if !comparableValue(v) {
				return bad("range bound of type %T on %q", v, p.Field)
			}
		}
		if p.Min != nil && p.Max != nil {
			if _, ok := compareValues(p.Min, p.Max); !ok {
				return bad("range bounds %T and %T on %q are not mutually comparable", p.Min, p.Max, p.Field)
			}
		}
		cp.min, cp.max = p.Min, p.Max
	default:
		return bad("unknown operator %v", p.Op)
	}
	return cp, nil
}

// match evaluates the predicate against one row.
func (cp *compiledPred) match(r Row, id int64) bool {
	switch cp.op {
	case OpEq, OpIn:
		if cp.field == IDField {
			i := sort.Search(len(cp.ids), func(k int) bool { return cp.ids[k] >= id })
			return i < len(cp.ids) && cp.ids[i] == id
		}
		return r.hasKey(cp.field, cp.keys)
	case OpRange:
		f, ok := r.field(cp.field)
		if !ok {
			return false
		}
		if cp.min != nil {
			c, ok := f.compareTo(cp.min)
			if !ok || c < 0 {
				return false
			}
		}
		if cp.max != nil {
			c, ok := f.compareTo(cp.max)
			if !ok || c > 0 {
				return false
			}
		}
		return true
	}
	return false
}

// comparableValue reports whether v participates in Range comparisons.
func comparableValue(v any) bool {
	switch v.(type) {
	case int64, float64, string, time.Time:
		return true
	}
	return false
}

// compareValues orders two comparable values of compatible types. int64
// and float64 are mutually comparable; every other pairing must match
// exactly. The bool result is false for incomparable pairings.
func compareValues(a, b any) (int, bool) {
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			return cmpOrdered(x, y), true
		case float64:
			return cmpOrdered(float64(x), y), true
		}
	case float64:
		switch y := b.(type) {
		case float64:
			return cmpOrdered(x, y), true
		case int64:
			return cmpOrdered(x, float64(y)), true
		}
	case string:
		if y, ok := b.(string); ok {
			return cmpOrdered(x, y), true
		}
	case time.Time:
		if y, ok := b.(time.Time); ok {
			return x.Compare(y), true
		}
	}
	return 0, false
}

func cmpOrdered[T interface{ ~int64 | ~float64 | ~string }](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func dedupeSortedIDs(ids []int64) []int64 {
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

func dedupeKeys(keys []indexKey) []indexKey {
	out := keys[:0]
	for _, k := range keys {
		dup := false
		for _, seen := range out {
			if seen == k {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, k)
		}
	}
	return out
}

// Explain plans the query without executing it and returns the Plan the
// executor would follow — the same code path Tx.Query runs, so what
// Explain reports is what Query does.
func (tx *Tx) Explain(q Query) (Plan, error) {
	if tx.done {
		return Plan{}, ErrTxDone
	}
	t, err := tx.table(q.Table)
	if err != nil {
		return Plan{}, err
	}
	pq, err := tx.plan(t, q)
	if err != nil {
		return Plan{}, err
	}
	return pq.plan, nil
}

// Query plans and starts executing q, returning a streaming iterator over
// the matching rows. The iterator reads the transaction's pinned snapshot
// (merged with its own pending writes) lock-free; the rows it yields are
// the stored rows themselves — immutable, so they stay consistent
// snapshots after the transaction ends.
//
// A Rows is not safe for concurrent use, but any number of concurrent
// queries may run against the same snapshot from separate Rows values.
func (tx *Tx) Query(q Query) (*Rows, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	t, err := tx.table(q.Table)
	if err != nil {
		return nil, err
	}
	pq, err := tx.plan(t, q)
	if err != nil {
		return nil, err
	}
	rows := &Rows{tx: tx, t: t, pq: pq, q: q}
	rows.start()
	return rows, nil
}

// Rows streams a query's result. Typical use:
//
//	rows, err := tx.Query(q)
//	if err != nil { ... }
//	for rows.Next() {
//		r := rows.Record() // the stored, immutable row
//		...
//	}
//	if err := rows.Err(); err != nil { ... }
//
// A Rows reads the transaction's overlay as it goes, so writing the
// iterated table through the same Tx while the Rows is open is
// unsupported: read-then-write loops drain it first (IDs or Collect) and
// write afterwards.
type Rows struct {
	tx *Tx
	t  *table
	pq *plannedQuery
	q  Query

	// Driver state: exactly one of ids (point/unique/index access, walked
	// by pos) or scan (id-order scan) is active; sorted holds the
	// materialized result when the plan requires a sort.
	ids    []int64
	pos    int
	scan   *scanRows
	sorted []Row

	cur     Row
	curID   int64
	emitted int
	done    bool
	err     error
}

// start resolves the access path into driver state.
func (r *Rows) start() {
	pq := r.pq
	if pq.plan.Sorted {
		r.materialize()
		return
	}
	switch pq.plan.Access {
	case AccessPoint:
		r.ids = pq.ids
	case AccessUnique, AccessIndex:
		r.ids = r.tx.lookupKeys(r.q.Table, r.t, pq.plan.Field, pq.keys)
	case AccessScan:
		from, to := pq.plan.ScanFrom, pq.plan.ScanTo
		if c := r.q.Cursor; c != 0 {
			if r.q.Desc {
				if c <= 1 {
					r.done = true
					return
				}
				if to == 0 || to > c-1 {
					to = c - 1
				}
			} else if from < c+1 {
				from = c + 1
			}
		}
		r.scan = newScanRows(r.tx, r.q.Table, r.t, from, to, r.q.Desc)
		return
	}
	// Position the id walk at the cursor.
	if r.q.Desc {
		r.pos = len(r.ids) - 1
		if c := r.q.Cursor; c != 0 {
			// Last index with id < c.
			r.pos = sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= c }) - 1
		}
	} else if c := r.q.Cursor; c != 0 {
		r.pos = sort.Search(len(r.ids), func(i int) bool { return r.ids[i] > c })
	}
}

// next yields the next candidate row from the driver, before residual
// filtering. id 0 means exhausted.
func (r *Rows) next() (int64, Row) {
	if r.scan != nil {
		return r.scan.next()
	}
	for {
		if r.q.Desc {
			if r.pos < 0 {
				return 0, Row{}
			}
		} else if r.pos >= len(r.ids) {
			return 0, Row{}
		}
		id := r.ids[r.pos]
		if r.q.Desc {
			r.pos--
		} else {
			r.pos++
		}
		if rec := r.tx.readRow(r.q.Table, r.t, id); rec.b != "" {
			return id, rec
		}
	}
}

// Next advances to the next matching row, reporting whether one exists.
func (r *Rows) Next() bool {
	if r.done || r.err != nil {
		return false
	}
	if r.q.Limit > 0 && r.emitted == r.q.Limit {
		r.done = true
		return false
	}
	if r.pq.plan.Sorted {
		if r.pos >= len(r.sorted) {
			r.done = true
			return false
		}
		r.cur = r.sorted[r.pos]
		r.curID = r.cur.ID()
		r.pos++
		r.emitted++
		return true
	}
	for {
		id, rec := r.next()
		if id == 0 {
			r.done = true
			return false
		}
		if !r.matches(rec, id) {
			continue
		}
		r.cur, r.curID = rec, id
		r.emitted++
		return true
	}
}

// matches applies the residual predicates.
func (r *Rows) matches(rec Row, id int64) bool {
	for i := range r.pq.residuals {
		if !r.pq.residuals[i].match(rec, id) {
			return false
		}
	}
	return true
}

// Record returns the current row. Valid after a true Next.
func (r *Rows) Record() Row { return r.cur }

// ID returns the current row's id. Valid after a true Next.
func (r *Rows) ID() int64 { return r.curID }

// Err returns the first error encountered while iterating, if any.
func (r *Rows) Err() error { return r.err }

// Plan returns the plan the iterator executes — the same value Explain
// reports for the query.
func (r *Rows) Plan() Plan { return r.pq.plan }

// Collect drains the iterator and returns the remaining rows.
func (r *Rows) Collect() ([]Row, error) {
	var out []Row
	for r.Next() {
		out = append(out, r.Record())
	}
	return out, r.Err()
}

// IDs drains the iterator and returns the remaining rows' ids in a slice
// the caller owns — the form read-then-write loops need, since the
// iterated table must not be written while the Rows is open.
func (r *Rows) IDs() ([]int64, error) {
	var out []int64
	for r.Next() {
		out = append(out, r.ID())
	}
	return out, r.Err()
}

// materialize runs the sort path: drain every matching row through the
// streaming machinery, then order by the OrderBy field (missing and
// mutually incomparable values first, ids as tiebreak).
func (r *Rows) materialize() {
	inner := &Rows{tx: r.tx, t: r.t, q: r.q, pq: &plannedQuery{
		plan:      r.pq.plan,
		driver:    r.pq.driver,
		keys:      r.pq.keys,
		ids:       r.pq.ids,
		residuals: r.pq.residuals,
	}}
	inner.pq.plan.Sorted = false
	inner.q.Limit = 0 // the limit applies after the sort
	inner.q.Desc = false
	inner.q.Cursor = 0 // rejected by the planner already; belt and braces
	inner.start()
	type keyed struct {
		row Row
		v   any
	}
	var recs []keyed
	for inner.Next() {
		row := inner.Record()
		recs = append(recs, keyed{row, row.Get(r.q.OrderBy)})
	}
	if err := inner.Err(); err != nil {
		r.err = err
		return
	}
	sort.SliceStable(recs, func(i, j int) bool {
		c := compareFieldValues(recs[i].v, recs[j].v)
		if c != 0 {
			return c < 0
		}
		return recs[i].row.ID() < recs[j].row.ID()
	})
	if r.q.Desc {
		for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
			recs[i], recs[j] = recs[j], recs[i]
		}
	}
	r.sorted = make([]Row, len(recs))
	for i, k := range recs {
		r.sorted[i] = k.row
	}
}

// compareFieldValues totally orders arbitrary field values for the sort
// path: missing values first, then grouped by type family (bool, numeric,
// string, time, everything else), ordered within a family.
func compareFieldValues(a, b any) int {
	ra, rb := typeRank(a), typeRank(b)
	if ra != rb {
		return cmpOrdered(int64(ra), int64(rb))
	}
	if c, ok := compareValues(a, b); ok {
		return c
	}
	if x, ok := a.(bool); ok {
		y := b.(bool)
		switch {
		case !x && y:
			return -1
		case x && !y:
			return 1
		}
	}
	return 0 // same family but unordered (slices): stable sort keeps id order
}

func typeRank(v any) int {
	switch v.(type) {
	case nil:
		return 0
	case bool:
		return 1
	case int64, float64:
		return 2
	case string:
		return 3
	case time.Time:
		return 4
	default:
		return 5
	}
}

// lookupKeys resolves the sorted, deduplicated ids matching any of the
// canonical keys on an indexed field, merging committed postings with the
// transaction's pending overlay. With no overlay and one key this is the
// pinned postings slice itself, shared and allocation-free (published
// postings are immutable up to the pinned length).
func (tx *Tx) lookupKeys(tableName string, t *table, field string, keys []indexKey) []int64 {
	ix := t.indexes[field]
	o := tx.pending[tableName]
	overlayEmpty := o == nil || (len(o.writes) == 0 && len(o.deletes) == 0)
	if overlayEmpty && len(keys) == 1 {
		return ix.postings(keys[0])
	}
	var ids []int64
	for _, key := range keys {
		for _, id := range ix.postings(key) {
			if o != nil {
				if o.deletes[id] {
					continue
				}
				if _, rewritten := o.writes[id]; rewritten {
					continue // re-checked against the pending state below
				}
			}
			ids = append(ids, id)
		}
	}
	if o != nil {
		if o.ixw != nil {
			// The overlay's per-index key maps hold the pending writers of
			// each key directly — a probe per key, not a scan over every
			// pending write (this path only runs for indexed fields, which
			// the materialized maps track by construction).
			for _, key := range keys {
				ids = append(ids, o.pendingIDs(field, key)...)
			}
		} else {
			// Below the map-build threshold the pending set is small;
			// scan it.
			for id, pr := range o.writes {
				if !o.deletes[id] && pr.hasKey(field, keys) {
					ids = append(ids, id)
				}
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return dedupeSortedIDs(ids)
}

// scanRows is the pull-based ordered scan: it merges the pinned version's
// chunk walk with the transaction's pending overlay, ascending or
// descending — the store's only ordered merge-walk.
type scanRows struct {
	o    *txTable
	desc bool

	// Committed side: exactly one of fit/rit is active.
	fit tableIter
	rit revTableIter
	cid int64
	cr  Row

	// Overlay side: write ids within bounds, ascending; walked from the
	// front (ascending) or back (descending).
	oids []int64
	opos int
}

func newScanRows(tx *Tx, tableName string, t *table, from, to int64, desc bool) *scanRows {
	s := &scanRows{desc: desc}
	if o := tx.pending[tableName]; o != nil && (len(o.writes) != 0 || len(o.deletes) != 0) {
		s.o = o
		for id := range o.writes {
			if !o.deletes[id] && id >= max(from, 1) && (to == 0 || id <= to) {
				s.oids = append(s.oids, id)
			}
		}
		sort.Slice(s.oids, func(i, j int) bool { return s.oids[i] < s.oids[j] })
	}
	if desc {
		s.rit = t.revIter(from, to)
		s.opos = len(s.oids) - 1
	} else {
		s.fit = t.iter(from, to)
	}
	s.advanceCommitted()
	return s
}

func (s *scanRows) advanceCommitted() {
	if s.desc {
		s.cid, s.cr = s.rit.next()
	} else {
		s.cid, s.cr = s.fit.next()
	}
}

// next returns the next live (id, row) in scan order, or (0, Row{}).
func (s *scanRows) next() (int64, Row) {
	if s.o == nil {
		id, rec := s.cid, s.cr
		if id != 0 {
			s.advanceCommitted()
		}
		return id, rec
	}
	for {
		oid := int64(0)
		if s.opos >= 0 && s.opos < len(s.oids) {
			oid = s.oids[s.opos]
		}
		if s.cid == 0 && oid == 0 {
			return 0, Row{}
		}
		// committedFirst: emit the committed side before the overlay side.
		committedFirst := oid == 0 || (s.cid != 0 && (!s.desc && s.cid < oid || s.desc && s.cid > oid))
		switch {
		case committedFirst:
			id, rec := s.cid, s.cr
			s.advanceCommitted()
			if s.o.deletes[id] {
				continue
			}
			if _, rewritten := s.o.writes[id]; rewritten {
				continue // emitted from the overlay side at its turn
			}
			return id, rec
		case s.cid == oid:
			s.advanceCommitted()
			fallthrough
		default: // overlay side: new insert or rewritten committed row
			if s.desc {
				s.opos--
			} else {
				s.opos++
			}
			return oid, s.o.writes[oid]
		}
	}
}

// revTableIter walks a table's live records in descending id order — the
// mirror of tableIter, skipping nil chunks wholesale.
type revTableIter struct {
	t      *table
	id     int64 // next candidate id, counting down
	fromID int64 // inclusive lower bound
}

// revIter returns a descending iterator over live ids in [fromID, toID];
// a bound of 0 means unbounded on that side.
func (t *table) revIter(fromID, toID int64) revTableIter {
	if fromID < 1 {
		fromID = 1
	}
	max := t.nextID - 1
	if toID == 0 || toID > max {
		toID = max
	}
	return revTableIter{t: t, id: toID, fromID: fromID}
}

// next returns the next live (id, row) counting down, or (0, Row{}).
func (it *revTableIter) next() (int64, Row) {
	for it.id >= it.fromID {
		ci, si := chunkPos(it.id)
		if ci >= len(it.t.chunks) {
			// Serial ids can run past the chunk slice when inserts were
			// deleted in the same transaction; resume at the covered end.
			it.id = int64(len(it.t.chunks)) * chunkSize
			continue
		}
		c := it.t.chunks[ci]
		if c == nil {
			it.id = int64(ci) * chunkSize // last id of the previous chunk
			continue
		}
		for si >= 0 && it.id >= it.fromID {
			r := c.recs[si]
			id := it.id
			si--
			it.id--
			if r.b != "" {
				return id, r
			}
		}
	}
	return 0, Row{}
}
