package store

import (
	"fmt"
	"slices"
	"sort"
)

// This file implements the multi-version core of the store: immutable
// store versions, the chunked copy-on-write table representation, and the
// commit-time builders that derive version N+1 from version N while
// sharing every untouched structure.
//
// A version is never mutated once it has been published through
// Store.current. The one in-place path, applyWALRecord, serves WAL replay
// during Open and snapshot load (readSnapshot), and both run it on a
// version not yet shared with any reader. Everything a
// reader can reach from a pinned version (tables, chunks, index postings,
// record maps) is therefore a stable snapshot for as long as the reader
// holds the pointer; abandoned versions are reclaimed by the garbage
// collector once the last reader drops them.

const (
	// chunkBits sizes the per-table record chunks: 1<<chunkBits records
	// per chunk. Chunks are the copy-on-write granule — a commit deep-
	// copies only the chunks it touches (a few KiB each) and shares the
	// rest with the previous version — so the value trades write
	// amplification (larger chunks copy more) against pointer overhead
	// and chunk-slice length (smaller chunks mean more of them).
	chunkBits = 7
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// chunk holds one fixed-size run of a table's id space: slot i of the
// chunk covering ids (base, base+chunkSize] carries the record with
// id base+i+1, or nil if that id is free or deleted. seqs carries, per
// slot, the commit sequence that last wrote it — including deletions,
// where the slot keeps the deleting commit's seq as a tombstone stamp.
// Those stamps are what first-committer-wins conflict detection compares
// against a transaction's snapshot sequence.
type chunk struct {
	recs [chunkSize]Record
	seqs [chunkSize]uint64
}

// version is one immutable, atomically-published state of the store:
// the commit sequence it corresponds to plus every table at that point.
type version struct {
	seq    uint64
	tables map[string]*table
}

// withTables returns a copy of the version with a private tables map
// (table pointers still shared), for schema changes and commits that
// replace table entries.
func (v *version) withTables() *version {
	nv := &version{seq: v.seq, tables: make(map[string]*table, len(v.tables))}
	for n, t := range v.tables {
		nv.tables[n] = t
	}
	return nv
}

// table is the state of one record kind within a version. Records live in
// chunks indexed directly by id — ids are serial, so chunk lookup is two
// shifts, no map — and iteration in chunk order IS ascending id order.
// A nil entry in chunks means every id in that run is free.
type table struct {
	name    string
	nextID  int64
	count   int // live records
	chunks  []*chunk
	indexes map[string]*index
	// lastSeq is the commit sequence of the last commit that modified this
	// table (records or serial high-water mark). Untouched tables carry
	// their stamp forward unchanged across commits, so a reader pinned to
	// version V knows "nothing in table T changed since seq S" from one
	// field read — the validity check behind the portal's session-user
	// cache and conditional (ETag) responses. After recovery or snapshot
	// load the stamp is conservatively the restored sequence.
	lastSeq uint64
}

func newTable(name string) *table {
	return &table{name: name, nextID: 1, indexes: make(map[string]*index)}
}

// chunkPos maps a record id to its chunk index and slot.
func chunkPos(id int64) (int, int) {
	return int((id - 1) >> chunkBits), int((id - 1) & chunkMask)
}

// get returns the live record with the given id, or nil.
func (t *table) get(id int64) Record {
	if id < 1 {
		return nil
	}
	ci, si := chunkPos(id)
	if ci >= len(t.chunks) {
		return nil
	}
	c := t.chunks[ci]
	if c == nil {
		return nil
	}
	return c.recs[si]
}

// seqOf returns the commit sequence that last wrote the id's slot —
// whether that write installed a record or deleted one — or 0 if the slot
// was never written in this version's history.
func (t *table) seqOf(id int64) uint64 {
	if id < 1 {
		return 0
	}
	ci, si := chunkPos(id)
	if ci >= len(t.chunks) {
		return 0
	}
	c := t.chunks[ci]
	if c == nil {
		return 0
	}
	return c.seqs[si]
}

// put installs a record IN PLACE, growing the chunk slice as needed.
// Only legal on tables not yet reachable by readers (applyWALRecord).
func (t *table) put(id int64, rec Record, seq uint64) {
	ci, si := chunkPos(id)
	for ci >= len(t.chunks) {
		t.chunks = append(t.chunks, nil)
	}
	c := t.chunks[ci]
	if c == nil {
		c = new(chunk)
		t.chunks[ci] = c
	}
	if c.recs[si] == nil {
		t.count++
	}
	c.recs[si] = rec
	c.seqs[si] = seq
}

// del removes a record IN PLACE, leaving a tombstone seq stamp. Only
// legal on tables not yet reachable by readers (applyWALRecord).
func (t *table) del(id int64, seq uint64) {
	ci, si := chunkPos(id)
	if ci >= len(t.chunks) || t.chunks[ci] == nil {
		return
	}
	c := t.chunks[ci]
	if c.recs[si] != nil {
		c.recs[si] = nil
		t.count--
	}
	c.seqs[si] = seq
}

// clone returns a shallow copy of the table for copy-on-write mutation:
// the chunk slice and index map are private, but the chunk and index
// structures themselves stay shared with the original until a cowTable /
// cowIndex detaches the ones a commit touches.
func (t *table) clone() *table {
	nt := &table{name: t.name, nextID: t.nextID, count: t.count, lastSeq: t.lastSeq}
	nt.chunks = append([]*chunk(nil), t.chunks...)
	nt.indexes = make(map[string]*index, len(t.indexes))
	for f, ix := range t.indexes {
		nt.indexes[f] = ix
	}
	return nt
}

// tableIter walks a table's live records in ascending id order by walking
// the chunk slice; nil chunks are skipped wholesale.
type tableIter struct {
	t    *table
	id   int64 // next candidate id
	toID int64 // inclusive upper bound
}

// iter returns an iterator over live ids in [fromID, toID]; a bound of 0
// means unbounded on that side.
func (t *table) iter(fromID, toID int64) tableIter {
	if fromID < 1 {
		fromID = 1
	}
	max := t.nextID - 1
	if toID == 0 || toID > max {
		toID = max
	}
	return tableIter{t: t, id: fromID, toID: toID}
}

// next returns the next live (id, record), or (0, nil) when exhausted.
func (it *tableIter) next() (int64, Record) {
	for it.id > 0 && it.id <= it.toID {
		ci, si := chunkPos(it.id)
		if ci >= len(it.t.chunks) {
			return 0, nil
		}
		c := it.t.chunks[ci]
		if c == nil {
			it.id = (int64(ci)+1)*chunkSize + 1
			continue
		}
		for si < chunkSize && it.id <= it.toID {
			r := c.recs[si]
			id := it.id
			si++
			it.id++
			if r != nil {
				return id, r
			}
		}
	}
	return 0, nil
}

// cowStats, when non-nil, counts copy-on-write privatizations during
// commits. Commits are serialized by the writer mutex, which also guards
// the counters; tests set the pointer to prove the per-commit copy bounds
// (each touched chunk and index shard is copied at most once).
var cowStats *struct {
	chunks   int // chunk deep-copies (including fresh allocations)
	groups   int // index shard-group head copies
	shards   int // index shard map copies
	postings int // postings slices privatized for non-append mutation
}

// cowTable wraps a freshly cloned table during one commit, tracking which
// chunks and indexes have already been detached from the base version so
// each is copied at most once per commit.
type cowTable struct {
	t       *table
	private map[int]bool // chunk indices deep-copied for this commit
	ixes    map[string]*cowIndex
}

func newCowTable(base *table) *cowTable {
	return &cowTable{t: base.clone(), private: make(map[int]bool), ixes: make(map[string]*cowIndex)}
}

// chunkFor returns a chunk private to this commit covering id, copying or
// allocating it on first touch.
func (ct *cowTable) chunkFor(id int64) (*chunk, int) {
	ci, si := chunkPos(id)
	for ci >= len(ct.t.chunks) {
		ct.t.chunks = append(ct.t.chunks, nil)
	}
	if !ct.private[ci] {
		if old := ct.t.chunks[ci]; old != nil {
			cp := *old
			ct.t.chunks[ci] = &cp
		} else {
			ct.t.chunks[ci] = new(chunk)
		}
		ct.private[ci] = true
		if cowStats != nil {
			cowStats.chunks++
		}
	}
	return ct.t.chunks[ci], si
}

func (ct *cowTable) put(id int64, rec Record, seq uint64) {
	c, si := ct.chunkFor(id)
	if c.recs[si] == nil {
		ct.t.count++
	}
	c.recs[si] = rec
	c.seqs[si] = seq
}

func (ct *cowTable) del(id int64, seq uint64) {
	c, si := ct.chunkFor(id)
	if c.recs[si] != nil {
		c.recs[si] = nil
		ct.t.count--
	}
	c.seqs[si] = seq
}

// index returns the commit-private copy-on-write wrapper for the named
// index, cloning the index head on first touch.
func (ct *cowTable) index(field string) *cowIndex {
	ci, ok := ct.ixes[field]
	if !ok {
		ix := ct.t.indexes[field].clone()
		ct.t.indexes[field] = ix
		ci = &cowIndex{ix: ix, privGroup: make(map[int]bool), privShard: make(map[int]bool)}
		ct.ixes[field] = ci
	}
	return ci
}

// cowIndex mutates a cloned index during one commit, privatizing each
// shard group and shard map on first touch. Postings themselves are
// rebuilt at most once per key by applyDelta, so no per-slice copy
// tracking is needed. Shard privatization is what keeps commit cost
// proportional to the keys touched rather than the keys that exist.
type cowIndex struct {
	ix        *index
	privGroup map[int]bool // group indices privatized this commit
	privShard map[int]bool // shard indices privatized this commit
}

// shardFor returns a shard map private to this commit covering key,
// copying the group head and the shard map on first touch.
func (ci *cowIndex) shardFor(key indexKey) map[indexKey][]int64 {
	s := shardOf(key)
	gi, si := s>>ixShardBits, s&(ixGroupSize-1)
	if !ci.privGroup[gi] {
		g := new(ixGroup)
		if old := ci.ix.groups[gi]; old != nil {
			*g = *old
		}
		ci.ix.groups[gi] = g
		ci.privGroup[gi] = true
		if cowStats != nil {
			cowStats.groups++
		}
	}
	g := ci.ix.groups[gi]
	if !ci.privShard[s] {
		old := g[si]
		m := make(map[indexKey][]int64, len(old)+1)
		for k, v := range old {
			m[k] = v
		}
		g[si] = m
		ci.privShard[s] = true
		if cowStats != nil {
			cowStats.shards++
		}
	}
	return g[si]
}

// applyDelta installs one key's net postings change for this commit:
// removes and adds are disjoint ascending id runs, applied in a single
// sorted-run merge so the key's postings are rebuilt (or appended to) at
// most once per commit, however many records moved under it. val is a
// representative field value for unique-violation messages.
func (ci *cowIndex) applyDelta(key indexKey, removes, adds []int64, val any) error {
	m := ci.shardFor(key)
	ids := m[key]
	if ci.ix.unique && len(ids)-len(removes)+len(adds) > 1 {
		return fmt.Errorf("field %q value %v: %w", ci.ix.field, val, ErrUnique)
	}
	if len(removes) == 0 {
		if len(adds) == 0 {
			return nil
		}
		if n := len(ids); n == 0 || adds[0] > ids[n-1] {
			// Pure batch append — the common bulk-insert case with serial
			// ids. Appending either reallocates or writes past every
			// published slice's length, which no reader of an earlier
			// version can observe, so no private copy is needed; one
			// append grows the slice once for the whole batch.
			m[key] = append(ids, adds...)
			return nil
		}
	}
	// General case: three-way sorted merge into a fresh slice (the
	// published one must never be mutated within its length).
	if cowStats != nil {
		cowStats.postings++
	}
	merged := make([]int64, 0, len(ids)+len(adds))
	i, j, k := 0, 0, 0
	for i < len(ids) || j < len(adds) {
		var id int64
		switch {
		case j >= len(adds) || (i < len(ids) && ids[i] <= adds[j]):
			id = ids[i]
			i++
			if i-1 < len(ids) && j < len(adds) && ids[i-1] == adds[j] {
				j++ // defensive: id both present and re-added
			}
		default:
			id = adds[j]
			j++
		}
		for k < len(removes) && removes[k] < id {
			k++
		}
		if k < len(removes) && removes[k] == id {
			k++
			continue
		}
		merged = append(merged, id)
	}
	if len(merged) == 0 {
		delete(m, key)
		return nil
	}
	if ci.ix.unique && len(merged) > 1 {
		return fmt.Errorf("field %q value %v: %w", ci.ix.field, val, ErrUnique)
	}
	m[key] = merged
	return nil
}

// keyDelta accumulates one index key's net postings change for a commit:
// the ascending ids leaving the key and the ascending ids arriving under
// it. val is a representative record value for error messages.
type keyDelta struct {
	removes, adds []int64
	val           any
}

// applyOverlay derives the successor of base by applying a transaction's
// pending overlay copy-on-write: untouched tables, chunks and index
// postings are shared with base; touched ones are copied once. Mirrors
// the WAL record's apply order (tables in sorted name order; per table
// deletions first, then writes in id order) so that replay reconstructs
// the exact same state.
//
// Index maintenance is delta-merged: instead of touching the index once
// per record, the commit groups every add and remove by (field, key) and
// merges each key's postings exactly once in a single sorted-run pass —
// a batch of N inserts sharing a key costs one append of N ids, not N
// incremental inserts. Net-keyed deltas also subsume the old two-phase
// remove-then-insert ordering: a unique-value swap between rows lands as
// one remove and one add on each key, never a transient collision. Rows
// whose indexed key is unchanged generate no delta at all, so a rewrite
// that does not move a row never detaches (copies) the key's postings.
//
// The same delta merge is what keeps the version's live counters
// maintained: the per-table count (table.count, incremented/decremented
// as chunk slots flip) and the per-(field,key) counts — materialized as
// the postings lengths the merged slices carry — are published on every
// committed version, so Tx.Count and the aggregate strategies
// count(maintained)/count(postings) read them O(1) instead of ever
// recounting rows.
func applyOverlay(base *version, pending map[string]*txTable) (*version, error) {
	nv := base.withTables()
	nv.seq = base.seq + 1
	names := make([]string, 0, len(pending))
	for name := range pending {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o := pending[name]
		bt := base.tables[name]
		if bt == nil {
			continue // tables are never dropped mid-tx; cannot happen
		}
		if len(o.writes) == 0 && len(o.deletes) == 0 {
			if o.nextID > bt.nextID {
				// Inserts that were all deleted again in the same tx:
				// only the serial high-water mark moves.
				nt := bt.clone()
				nt.nextID = o.nextID
				nt.lastSeq = nv.seq
				nv.tables[name] = nt
			}
			continue
		}
		ct := newCowTable(bt)
		ct.t.lastSeq = nv.seq

		delIDs := make([]int64, 0, len(o.deletes))
		for id := range o.deletes {
			delIDs = append(delIDs, id)
		}
		sort.Slice(delIDs, func(i, j int) bool { return delIDs[i] < delIDs[j] })
		oldDels := make([]Record, len(delIDs))
		for i, id := range delIDs {
			oldDels[i] = ct.t.get(id)
		}

		writeIDs := make([]int64, 0, len(o.writes))
		for id := range o.writes {
			writeIDs = append(writeIDs, id)
		}
		sort.Slice(writeIDs, func(i, j int) bool { return writeIDs[i] < writeIDs[j] })
		olds := make([]Record, len(writeIDs))
		for i, id := range writeIDs {
			olds[i] = ct.t.get(id)
		}

		// Per-field postings deltas, built before any chunk mutation so
		// old records are still reachable. Ids arrive in ascending order,
		// so each delta's runs are naturally sorted.
		for f := range ct.t.indexes {
			var deltas map[indexKey]*keyDelta
			delta := func(key indexKey, val any) *keyDelta {
				if deltas == nil {
					deltas = make(map[indexKey]*keyDelta)
				}
				d := deltas[key]
				if d == nil {
					d = &keyDelta{val: val}
					deltas[key] = d
				}
				return d
			}
			for i, id := range delIDs {
				if oldDels[i] == nil {
					continue
				}
				if key, ok := keyFor(oldDels[i][f]); ok {
					d := delta(key, oldDels[i][f])
					d.removes = append(d.removes, id)
				}
			}
			for i, id := range writeIDs {
				rec := o.writes[id]
				var okey, nkey indexKey
				var ook, nok bool
				if olds[i] != nil {
					okey, ook = keyFor(olds[i][f])
				}
				nkey, nok = keyFor(rec[f])
				if ook == nok && okey == nkey {
					continue // unchanged (or unindexable on both sides)
				}
				if ook {
					d := delta(okey, olds[i][f])
					d.removes = append(d.removes, id)
				}
				if nok {
					d := delta(nkey, rec[f])
					d.adds = append(d.adds, id)
				}
			}
			if deltas == nil {
				continue
			}
			ci := ct.index(f)
			for key, d := range deltas {
				// removes concatenates two ascending runs (deleted ids,
				// then rewritten ids); restore global order for the merge.
				if !slices.IsSorted(d.removes) {
					slices.Sort(d.removes)
				}
				if err := ci.applyDelta(key, d.removes, d.adds, d.val); err != nil {
					return nil, err
				}
			}
		}

		// Chunk mutations, in the WAL replay order: deletions first, then
		// writes in ascending id order.
		for i, id := range delIDs {
			if oldDels[i] != nil {
				ct.del(id, nv.seq)
			}
		}
		for _, id := range writeIDs {
			ct.put(id, o.writes[id], nv.seq)
		}
		if o.nextID > ct.t.nextID {
			ct.t.nextID = o.nextID
		}
		nv.tables[name] = ct.t
	}
	return nv, nil
}
