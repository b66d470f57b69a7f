package store

import (
	"fmt"
	"sort"
	"strconv"
	"time"
)

// indexKey is the canonical string form of an indexed field value. Using a
// typed string keeps index maps simple while still distinguishing types
// (e.g. int64(1) never collides with "1").
type indexKey string

// keyFor converts a field value to its index key. The bool result reports
// whether the value is indexable; slices are not.
func keyFor(v any) (indexKey, bool) {
	switch x := v.(type) {
	case nil:
		return "", false
	case string:
		return indexKey("s:" + x), true
	case int64:
		return indexKey("i:" + strconv.FormatInt(x, 10)), true
	case float64:
		return indexKey("f:" + strconv.FormatFloat(x, 'g', -1, 64)), true
	case bool:
		if x {
			return "b:1", true
		}
		return "b:0", true
	case time.Time:
		return indexKey("t:" + x.UTC().Format(time.RFC3339Nano)), true
	default:
		return "", false
	}
}

// keyValue is the field value an index key stands for, as unique-violation
// messages print it.
func keyValue(k indexKey) any {
	if v, ok := decodeKey(k); ok {
		return v
	}
	return k
}

// decodeKey converts an index key back to the field value it encodes —
// the inverse of keyFor, used by grouped aggregates to report group keys
// without reading any row. Every key keyFor produces decodes.
func decodeKey(k indexKey) (any, bool) {
	if len(k) < 2 || k[1] != ':' {
		return nil, false
	}
	body := string(k[2:])
	switch k[0] {
	case 's':
		return body, true
	case 'i':
		n, err := strconv.ParseInt(body, 10, 64)
		return n, err == nil
	case 'f':
		f, err := strconv.ParseFloat(body, 64)
		return f, err == nil
	case 'b':
		return body == "1", true
	case 't':
		ts, err := time.Parse(time.RFC3339Nano, body)
		return ts, err == nil
	}
	return nil, false
}

// Index postings are spread over hash shards arranged as a two-level
// radix: ixGroupCount groups of ixGroupSize shard maps each. Sharding
// exists for the copy-on-write commit path: a commit privatizes only the
// shards whose keys it touches, so the per-commit clone cost is
// O(touched keys * keys-per-shard) instead of O(all distinct keys) — the
// difference between constant and linear write amplification on tables
// with high-cardinality indexes. The two levels keep the clone itself
// tiny: copying an index head is ixGroupCount pointers, and privatizing
// one shard copies a single ixGroupSize-entry group plus that shard map.
const (
	ixGroupBits     = 6
	ixGroupCount    = 1 << ixGroupBits
	ixShardBits     = 4
	ixGroupSize     = 1 << ixShardBits
	indexShardCount = ixGroupCount * ixGroupSize
)

// ixGroup is one run of shard maps; entries are nil until first used.
type ixGroup [ixGroupSize]map[indexKey][]int64

// shardOf hashes an index key to its shard (FNV-1a). The group is
// shard >> ixShardBits, the slot within it shard & (ixGroupSize-1).
func shardOf(key indexKey) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h & (indexShardCount - 1))
}

// index is a secondary index over one field of a table. Postings are kept
// as sorted id slices inside hash-sharded maps, maintained incrementally
// on insert/remove, so lookups return ordered results without re-sorting.
// Unique indexes additionally enforce at most one row per key.
//
// Like every version-reachable structure, a published index is immutable:
// the in-place methods below are only legal while the index is private
// (recovery, Load, CreateIndex builds); commits go through cowIndex,
// which privatizes groups, shards and postings before touching them.
type index struct {
	field  string
	unique bool
	// groups holds the shard maps; nil groups (and nil shard maps inside
	// a group) are all-empty.
	groups []*ixGroup
}

func newIndex(field string, unique bool) *index {
	return &index{field: field, unique: unique, groups: make([]*ixGroup, ixGroupCount)}
}

// clone returns a copy of the index sharing every shard group (and thus
// every postings slice) with the original. Used by the copy-on-write
// commit path, which privatizes groups and shards before mutating them
// (see cowIndex); the in-place methods must never run on a clone.
func (ix *index) clone() *index {
	return &index{
		field:  ix.field,
		unique: ix.unique,
		groups: append(make([]*ixGroup, 0, ixGroupCount), ix.groups...),
	}
}

// postings returns the sorted ids holding key, shared — callers must not
// mutate.
func (ix *index) postings(key indexKey) []int64 {
	s := shardOf(key)
	g := ix.groups[s>>ixShardBits]
	if g == nil {
		return nil
	}
	m := g[s&(ixGroupSize-1)]
	if m == nil {
		return nil
	}
	return m[key]
}

// setPostings installs (or, with nil ids, removes) a key's postings
// IN PLACE. Only legal on a private index.
func (ix *index) setPostings(key indexKey, ids []int64) {
	s := shardOf(key)
	g := ix.groups[s>>ixShardBits]
	if g == nil {
		if ids == nil {
			return
		}
		g = new(ixGroup)
		ix.groups[s>>ixShardBits] = g
	}
	m := g[s&(ixGroupSize-1)]
	if m == nil {
		if ids == nil {
			return
		}
		m = make(map[indexKey][]int64)
		g[s&(ixGroupSize-1)] = m
	}
	if ids == nil {
		delete(m, key)
		return
	}
	m[key] = ids
}

// insert adds a row under its key IN PLACE; an absent or unindexable
// field is simply not indexed. Only legal on a private index.
func (ix *index) insert(r Row, id int64) error {
	key, ok := r.key(ix.field)
	if !ok {
		return nil
	}
	ids := ix.postings(key)
	if n := len(ids); ix.unique && n > 0 && !(n == 1 && ids[0] == id) {
		return fmt.Errorf("field %q value %v: %w", ix.field, keyValue(key), ErrUnique)
	}
	ix.setPostings(key, insertSorted(ids, id))
	return nil
}

func (ix *index) remove(r Row, id int64) {
	if key, ok := r.key(ix.field); ok {
		ix.removeKey(key, id)
	}
}

// removeKey drops id from an already-computed key's postings IN PLACE.
// Only legal on a private index.
func (ix *index) removeKey(key indexKey, id int64) {
	ids := removeSorted(ix.postings(key), id)
	if len(ids) == 0 {
		ix.setPostings(key, nil)
		return
	}
	ix.setPostings(key, ids)
}

// walkKeys calls fn for every key with postings, in shard order (that
// is, unordered with respect to key values), sharing each postings slice
// (callers must not mutate). fn returning false stops the walk. This is
// the grouped-count access path: the distinct keys of the index and
// their live-row counts, without touching a single record.
func (ix *index) walkKeys(fn func(key indexKey, ids []int64) bool) {
	for _, g := range ix.groups {
		if g == nil {
			continue
		}
		for _, m := range g {
			for key, ids := range m {
				if len(ids) == 0 {
					continue
				}
				if !fn(key, ids) {
					return
				}
			}
		}
	}
}

// checkUnique verifies that writing record r under id would not violate the
// unique constraint, given the committed index state plus the transaction's
// pending overlay (pending/deleted describe rows written/deleted in the
// transaction, keyed by id).
func (ix *index) checkUnique(r Row, id int64, pending map[int64]Row, deleted map[int64]bool) error {
	if !ix.unique {
		return nil
	}
	key, ok := r.key(ix.field)
	if !ok {
		return nil
	}
	// Committed holders of this key.
	for _, holder := range ix.postings(key) {
		if holder == id {
			continue
		}
		if deleted[holder] {
			continue // will be gone at commit
		}
		if pr, ok := pending[holder]; ok {
			// Holder is being rewritten in this tx; does it still hold the key?
			if pr.hasKey(ix.field, []indexKey{key}) {
				return fmt.Errorf("field %q value %v held by row %d: %w", ix.field, keyValue(key), holder, ErrUnique)
			}
			continue
		}
		return fmt.Errorf("field %q value %v held by row %d: %w", ix.field, keyValue(key), holder, ErrUnique)
	}
	// Other pending writes in the same transaction.
	for oid, pr := range pending {
		if oid == id || deleted[oid] {
			continue
		}
		if pr.hasKey(ix.field, []indexKey{key}) {
			return fmt.Errorf("field %q value %v pending on row %d: %w", ix.field, keyValue(key), oid, ErrUnique)
		}
	}
	return nil
}

// insertSorted adds id to the ascending slice, keeping it sorted and
// duplicate-free. Serial IDs almost always append; the general case falls
// back to a binary-search insertion.
func insertSorted(ids []int64, id int64) []int64 {
	n := len(ids)
	if n == 0 || id > ids[n-1] {
		return append(ids, id)
	}
	i := sort.Search(n, func(k int) bool { return ids[k] >= id })
	if i < n && ids[i] == id {
		return ids // already present
	}
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// removeSorted drops id from the ascending slice, if present.
func removeSorted(ids []int64, id int64) []int64 {
	n := len(ids)
	i := sort.Search(n, func(k int) bool { return ids[k] >= id })
	if i == n || ids[i] != id {
		return ids
	}
	copy(ids[i:], ids[i+1:])
	return ids[:n-1]
}
