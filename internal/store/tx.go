package store

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// Tx is a transaction over the store, pinned to the immutable version that
// was current when it began. Reads answer from that snapshot (merged with
// the transaction's own pending writes) without taking any lock, so even
// long paginated scans observe exactly one consistent state.
//
// Three flavors share this type:
//
//   - read-only (View / Begin(true)): lock-free for their whole life;
//   - exclusive (Update): hold the store's writer mutex from begin to
//     commit, serializing with other writers, so they cannot conflict;
//   - optimistic (Begin(false)): buffer writes lock-free and validate
//     first-committer-wins at Commit, which fails with ErrConflict when
//     another transaction got there first.
//
// Transactions are not safe for concurrent use by multiple goroutines.
type Tx struct {
	s         *Store
	ver       *version // pinned snapshot
	readonly  bool
	exclusive bool // Update-path: writer mutex held since begin
	done      bool

	// Pending per-table overlays, lazily allocated.
	pending map[string]*txTable

	// walSeq is the commit sequence this transaction appended to the WAL,
	// or 0 if nothing was logged. The commit path waits on it per the sync
	// policy after the writer mutex is released, so waiting never blocks
	// other commits.
	walSeq uint64
}

// txTable is the pending overlay for one table within a transaction.
type txTable struct {
	writes  map[int64]Row  // id -> new row state
	deletes map[int64]bool // id -> deleted in this tx
	nextID  int64          // provisional next id (0 = untouched)
	// lastSeq, when set, is the TableSeq stamp the install gives the
	// table instead of the commit's own seq: a replicated run stamps each
	// table with the seq of the last frame that touched it.
	lastSeq uint64

	// ixw indexes the overlay itself: for every indexed field of the
	// pinned table, the sorted pending-write ids per index key. It is
	// maintained incrementally by Insert/Put/Delete so unique checks and
	// overlay-aware lookups are map probes instead of scans over every
	// pending write — the difference between linear and quadratic bulk
	// transactions.
	//
	// The maps materialize only once the overlay holds ixwBuildThreshold
	// writes: below that, scanning the handful of pending writes is
	// cheaper than maintaining maps, and single-record transactions (the
	// interactive registration path) pay nothing for the bulk machinery.
	// Invariant once non-nil: ixw holds exactly the keys of the records
	// currently in writes (deleted pending writes are unregistered); a
	// missing per-field map means no pending write carries that field.
	ixw map[string]map[indexKey][]int64
}

// ixwBuildThreshold is the overlay size at which the per-index key maps
// are built. Below it every overlay read scans the pending writes —
// bounded by the threshold, so still O(1) — and writes skip map
// maintenance entirely.
const ixwBuildThreshold = 16

// buildIxw materializes the overlay key maps from the current writes.
func (o *txTable) buildIxw(t *table) {
	o.ixw = make(map[string]map[indexKey][]int64, len(t.indexes))
	for id, rec := range o.writes {
		o.ixRegister(t, id, rec)
	}
}

// ixAdd registers a pending write's indexed keys in the overlay maps,
// building the maps when the overlay crosses the size threshold. Must be
// called after the write is installed in o.writes.
func (o *txTable) ixAdd(t *table, id int64, rec Row) {
	if o.ixw == nil {
		if len(o.writes) < ixwBuildThreshold || len(t.indexes) == 0 {
			return
		}
		o.buildIxw(t) // registers every current write, including this one
		return
	}
	o.ixRegister(t, id, rec)
}

// ixRegister adds one record's keys to already-materialized overlay maps.
// Serial ids make the per-key slices naturally append-ordered; out-of-order
// ids (rewrites of committed rows) fall back to a sorted insert.
func (o *txTable) ixRegister(t *table, id int64, rec Row) {
	for f := range t.indexes {
		key, ok := rec.key(f)
		if !ok {
			continue
		}
		m := o.ixw[f]
		if m == nil {
			m = make(map[indexKey][]int64)
			o.ixw[f] = m
		}
		m[key] = insertSorted(m[key], id)
	}
}

// ixRemove drops a pending write's indexed keys from the overlay maps,
// the inverse of ixRegister. A no-op below the build threshold.
func (o *txTable) ixRemove(t *table, id int64, rec Row) {
	if o.ixw == nil {
		return
	}
	for f := range t.indexes {
		m := o.ixw[f]
		if m == nil {
			continue
		}
		key, ok := rec.key(f)
		if !ok {
			continue
		}
		ids := removeSorted(m[key], id)
		if len(ids) == 0 {
			delete(m, key)
		} else {
			m[key] = ids
		}
	}
}

// pendingIDs returns the sorted pending-write ids whose indexed field
// carries the given key. Callers must ensure o.ixw is non-nil (the maps
// are materialized) and the field is indexed in the pinned table — the
// invariants ixRegister maintains.
func (o *txTable) pendingIDs(field string, key indexKey) []int64 {
	return o.ixw[field][key]
}

// checkUnique verifies that writing rec under id violates no unique index
// of table t, given the committed postings plus this overlay. With the
// overlay maps materialized both sides are O(1) probes: the overlay map
// holds at most the pending writers of the key, and a unique committed
// key holds at most one row. Below the build threshold the (small)
// pending set is scanned instead.
func (o *txTable) checkUnique(t *table, rec Row, id int64) error {
	if o.ixw == nil {
		for _, ix := range t.indexes {
			if err := ix.checkUnique(rec, id, o.writes, o.deletes); err != nil {
				return err
			}
		}
		return nil
	}
	for _, ix := range t.indexes {
		if !ix.unique {
			continue
		}
		key, ok := rec.key(ix.field)
		if !ok {
			continue
		}
		for _, holder := range o.pendingIDs(ix.field, key) {
			if holder != id {
				return fmt.Errorf("field %q value %v pending on row %d: %w", ix.field, keyValue(key), holder, ErrUnique)
			}
		}
		for _, holder := range ix.postings(key) {
			if holder == id || o.deletes[holder] {
				continue
			}
			if _, rewritten := o.writes[holder]; rewritten {
				// The holder's current key lives in the overlay maps and
				// was probed above; its committed key no longer counts.
				continue
			}
			return fmt.Errorf("field %q value %v held by row %d: %w", ix.field, keyValue(key), holder, ErrUnique)
		}
	}
	return nil
}

// Snapshot returns the commit sequence of the version this transaction is
// pinned to: the transaction observes every commit with a sequence at or
// below it and none above it.
func (tx *Tx) Snapshot() uint64 { return tx.ver.seq }

// TableSeq returns the commit sequence of the last commit at or below this
// transaction's snapshot that modified the named table, or 0 for an
// unknown table. Pending writes of this transaction are not reflected.
// A value derived from the table at sequence S needs no refresh inside
// this transaction while TableSeq(name) <= S.
func (tx *Tx) TableSeq(name string) uint64 {
	if t, ok := tx.ver.tables[name]; ok {
		return t.lastSeq
	}
	return 0
}

// Rollback discards the transaction. For read-only transactions it simply
// unpins the snapshot. It is idempotent, and safe to defer alongside an
// explicit Commit.
func (tx *Tx) Rollback() { tx.release() }

// release finishes the transaction, dropping the writer mutex if this is
// an exclusive (Update) transaction. It is idempotent.
func (tx *Tx) release() {
	if tx.done {
		return
	}
	tx.done = true
	if tx.exclusive {
		tx.s.writeMu.Unlock()
	}
}

// Commit atomically publishes the transaction's writes as a new store
// version. On read-only transactions it is a no-op. On optimistic (Begin)
// transactions it first validates first-committer-wins against the latest
// committed version and fails with ErrConflict if the transaction lost a
// race; on a durable store the commit is WAL-appended before it becomes
// visible and, under SyncAlways, Commit waits for the group fsync.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	if tx.readonly {
		tx.release()
		return nil
	}
	if tx.exclusive {
		// Update-path transactions already hold the writer mutex and are
		// committed by Update itself when fn returns nil; re-locking here
		// would self-deadlock.
		return fmt.Errorf("store: transactions started by Update are committed by Update itself")
	}
	s := tx.s
	if err := s.writeGate(); err != nil {
		tx.done = true
		return err
	}
	s.writeMu.Lock()
	if s.closed.Load() {
		s.writeMu.Unlock()
		tx.done = true
		return ErrClosed
	}
	err := tx.validate()
	if err == nil {
		err = tx.commitLocked()
	}
	s.writeMu.Unlock()
	tx.done = true
	if err != nil {
		return err
	}
	return s.afterCommit(tx)
}

// table resolves a table in the pinned snapshot.
func (tx *Tx) table(name string) (*table, error) {
	t, ok := tx.ver.tables[name]
	if !ok {
		return nil, fmt.Errorf("store: table %q: %w", name, ErrNoTable)
	}
	return t, nil
}

// Tables returns the sorted names of all tables in the transaction's
// pinned snapshot — not the live store head, which may have gained tables
// since the transaction began.
func (tx *Tx) Tables() []string {
	if tx.done {
		return nil
	}
	return tx.ver.tableNames()
}

func (tx *Tx) overlay(name string) *txTable {
	o, ok := tx.pending[name]
	if !ok {
		if tx.pending == nil {
			tx.pending = make(map[string]*txTable)
		}
		o = &txTable{writes: make(map[int64]Row), deletes: make(map[int64]bool)}
		tx.pending[name] = o
	}
	return o
}

// encBufs recycles the scratch buffers rows are encoded through, so a
// short transaction does not grow a fresh one.
var encBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodeRow encodes r as the row with the given id: the one copy a write
// makes of the caller's record.
func encodeRow(id int64, r Record) (Row, error) {
	bp := encBufs.Get().(*[]byte)
	defer encBufs.Put(bp)
	buf, err := appendRow((*bp)[:0], id, r)
	if err != nil {
		return Row{}, err
	}
	*bp = buf
	return Row{string(buf)}, nil
}

// Insert adds a new record to the named table and returns its assigned ID.
// The input record is not modified; the store keeps its encoding.
func (tx *Tx) Insert(tableName string, r Record) (int64, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	if tx.readonly {
		return 0, ErrReadOnly
	}
	t, err := tx.table(tableName)
	if err != nil {
		return 0, err
	}
	id := t.nextID
	if o := tx.pending[tableName]; o != nil && o.nextID != 0 {
		id = o.nextID
	}
	rec, err := encodeRow(id, r)
	if err != nil {
		return 0, err
	}
	o := tx.overlay(tableName)
	// Check every unique index before registering anything, so a failed
	// Insert leaves no partial overlay state behind: the provisional id is
	// not claimed and no overlay-map entry was ever written.
	if err := o.checkUnique(t, rec, id); err != nil {
		return 0, err
	}
	o.nextID = id + 1
	o.writes[id] = rec
	delete(o.deletes, id)
	o.ixAdd(t, id, rec)
	return id, nil
}

// Put replaces the record with the given id. The record must exist.
func (tx *Tx) Put(tableName string, id int64, r Record) error {
	if tx.done {
		return ErrTxDone
	}
	if tx.readonly {
		return ErrReadOnly
	}
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	rec, err := encodeRow(id, r)
	if err != nil {
		return err
	}
	if tx.readRow(tableName, t, id).b == "" {
		return fmt.Errorf("store: %s/%d: %w", tableName, id, ErrNotFound)
	}
	o := tx.overlay(tableName)
	if err := o.checkUnique(t, rec, id); err != nil {
		return err
	}
	if old, ok := o.writes[id]; ok {
		o.ixRemove(t, id, old)
	}
	o.writes[id] = rec
	delete(o.deletes, id)
	o.ixAdd(t, id, rec)
	return nil
}

// Delete removes the record with the given id. Deleting a missing record
// returns ErrNotFound.
func (tx *Tx) Delete(tableName string, id int64) error {
	if tx.done {
		return ErrTxDone
	}
	if tx.readonly {
		return ErrReadOnly
	}
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	if tx.readRow(tableName, t, id).b == "" {
		return fmt.Errorf("store: %s/%d: %w", tableName, id, ErrNotFound)
	}
	o := tx.overlay(tableName)
	if old, ok := o.writes[id]; ok {
		o.ixRemove(t, id, old)
		delete(o.writes, id)
	}
	o.deletes[id] = true
	return nil
}

// readRow is the one overlay-shadowing point read: the live row with the
// given id as the transaction sees it — pending deletes, then pending
// writes, then the pinned version — or the zero Row.
func (tx *Tx) readRow(tableName string, t *table, id int64) Row {
	if o, ok := tx.pending[tableName]; ok {
		if o.deletes[id] {
			return Row{}
		}
		if rec, ok := o.writes[id]; ok {
			return rec
		}
	}
	return t.get(id)
}

// Get returns the record with the given id decoded into a Record the
// caller owns and may mutate, observing the transaction's own pending
// writes.
func (tx *Tx) Get(tableName string, id int64) (Record, error) {
	r, err := tx.GetRef(tableName, id)
	if err != nil {
		return nil, err
	}
	return r.Record(), nil
}

// GetRef returns the row with the given id without copying it, observing
// the transaction's own pending writes. Rows are immutable — a write
// replaces the whole row in a fresh store version — so the row stays a
// consistent snapshot after the transaction ends.
func (tx *Tx) GetRef(tableName string, id int64) (Row, error) {
	if tx.done {
		return Row{}, ErrTxDone
	}
	t, err := tx.table(tableName)
	if err != nil {
		return Row{}, err
	}
	r := tx.readRow(tableName, t, id)
	if r.b == "" {
		return Row{}, fmt.Errorf("store: %s/%d: %w", tableName, id, ErrNotFound)
	}
	return r, nil
}

// Exists reports whether the record exists.
func (tx *Tx) Exists(tableName string, id int64) bool {
	if tx.done {
		return false
	}
	t, err := tx.table(tableName)
	if err != nil {
		return false
	}
	return tx.readRow(tableName, t, id).b != ""
}

// Count returns the number of live records in the table as seen by the
// transaction: the version's incrementally maintained live count (every
// commit publishes it alongside the chunks — see applyOverlay) adjusted
// for the transaction's own inserts and deletes. O(1) plus the overlay
// size; this is the "count(maintained)" strategy of aggregate plans.
func (tx *Tx) Count(tableName string) int {
	if tx.done {
		return 0
	}
	t, err := tx.table(tableName)
	if err != nil {
		return 0
	}
	return tx.liveCount(tableName, t)
}

// liveCount is Count against an already-resolved table.
func (tx *Tx) liveCount(tableName string, t *table) int {
	n := t.count
	if o, ok := tx.pending[tableName]; ok {
		for id := range o.writes {
			if t.get(id).b == "" {
				n++
			}
		}
		for id := range o.deletes {
			if t.get(id).b != "" {
				n--
			}
		}
	}
	return n
}

// validate implements first-committer-wins conflict detection for
// optimistic transactions, called with the writer mutex held. Exclusive
// (Update) transactions pin the head version while already holding the
// mutex, so nothing can have moved and validation short-circuits.
//
// The rules, checked against the latest committed version:
//
//   - a record this transaction put or deleted must not carry a commit
//     stamp newer than the transaction's snapshot (another transaction
//     rewrote or deleted it first);
//   - a serial id this transaction claimed for an insert must still be
//     unclaimed (another transaction allocated the same id first);
//   - unique constraints are re-checked against the latest indexes, since
//     the write-time check only saw the snapshot.
func (tx *Tx) validate() error {
	base := tx.s.current.Load()
	if base == tx.ver {
		return nil
	}
	snap := tx.ver.seq
	conflict := func(name string, id int64) error {
		return fmt.Errorf("store: %s/%d changed since snapshot %d: %w", name, id, snap, ErrConflict)
	}
	for name, o := range tx.pending {
		bt := base.tables[name]
		if bt == nil {
			return fmt.Errorf("store: table %q: %w", name, ErrNoTable)
		}
		pt := tx.ver.tables[name] // non-nil: the overlay proves it existed at pin
		for id := range o.writes {
			if id >= pt.nextID {
				// Insert: the claimed id must still be free in the head.
				if id < bt.nextID {
					return conflict(name, id)
				}
			} else if bt.seqOf(id) > snap {
				return conflict(name, id)
			}
		}
		for id := range o.deletes {
			if id >= pt.nextID {
				// Insert-then-delete: the id was still claimed from the
				// serial space and must not have been taken meanwhile.
				if id < bt.nextID {
					return conflict(name, id)
				}
			} else if bt.seqOf(id) > snap {
				return conflict(name, id)
			}
		}
		for _, ix := range bt.indexes {
			if !ix.unique {
				continue
			}
			if _, pinned := pt.indexes[ix.field]; !pinned || o.ixw == nil {
				// Either the index appeared after this transaction pinned
				// its snapshot (so the overlay maps never tracked the
				// field), or the overlay stayed below the map-build
				// threshold; fall back to the per-row reference check over
				// the (small) pending set.
				for id, r := range o.writes {
					if err := ix.checkUnique(r, id, o.writes, o.deletes); err != nil {
						return err
					}
				}
				continue
			}
			// One probe per distinct pending key against the latest
			// committed postings — O(distinct keys), not O(writes²). The
			// write-time check already guarantees overlay-internal
			// uniqueness; only new committed holders can conflict here.
			for key := range o.ixw[ix.field] {
				for _, holder := range ix.postings(key) {
					if o.deletes[holder] {
						continue
					}
					if _, rewritten := o.writes[holder]; rewritten {
						continue
					}
					return fmt.Errorf("field %q key %s held by row %d: %w", ix.field, key, holder, ErrUnique)
				}
			}
		}
	}
	return nil
}

// commitLocked publishes the transaction's pending writes as a new store
// version. The writer mutex is already held (and, for optimistic
// transactions, validate has passed), so the head cannot move underneath.
//
// On durable stores the record-set is appended to the WAL before the new
// version is published: if the append fails, the store is unchanged and
// the commit reports the failure. The append itself only reaches the OS;
// fsync is deferred to the group-commit batcher, which the caller
// consults after releasing the writer mutex.
func (tx *Tx) commitLocked() error {
	if tx.done {
		return ErrTxDone
	}
	if tx.readonly {
		return nil
	}
	s := tx.s
	base := s.current.Load()
	// A transaction that changed nothing must not advance the commit seq:
	// the WAL logs nothing for it, and replay requires the on-disk
	// sequence numbers to be contiguous.
	changed := false
	for name, o := range tx.pending {
		t := base.tables[name]
		if len(o.writes) != 0 || len(o.deletes) != 0 || (t != nil && o.nextID > t.nextID) {
			changed = true
			break
		}
	}
	if !changed {
		return nil
	}
	// The WAL payload doubles as the replication frame: encode it when
	// either consumer exists (an in-memory primary can still ship frames
	// to subscribed followers).
	var payload []byte
	var seq uint64
	if s.wal != nil || len(s.replSubs) > 0 {
		payload, seq = tx.encodeWALPayload(base)
	}
	if s.wal != nil && seq != 0 {
		if err := s.wal.append(seq, payload); err != nil {
			// The log is poisoned (sticky): no future commit can be
			// made durable, so the store degrades to read-only now.
			// The failing commit itself reports the root cause.
			s.degrade(err)
			return err
		}
		tx.walSeq = seq
	}
	nv, err := applyOverlay(base, tx.pending, base.seq+1)
	if err != nil {
		// Unique violations are checked at write or validate time; hitting
		// one during the copy-on-write install indicates a bug. If the
		// record was already appended to the WAL, poison the log: the next
		// commit would reuse this seq and recovery would replay the
		// never-published transaction in its place.
		err = fmt.Errorf("store: commit: %w", err)
		if tx.walSeq != 0 {
			s.wal.poison(err)
		}
		return err
	}
	s.current.Store(nv)
	if seq != 0 {
		s.publishCommit(seq, payload)
	}
	return nil
}

// encodeWALPayload serializes the transaction's pending overlay directly
// into the store's reusable scratch buffer (commits are serialized by the
// writer mutex, and wal.append copies the bytes out synchronously, so
// single ownership holds). Writes are their rows' bytes, concatenated.
// The base version supplies the commit sequence and the per-table serial
// high-water marks. It returns seq 0 when the transaction touched nothing
// worth logging. The byte layout is walcodec.go's; equivalence with the
// struct-based encoder is pinned by TestWALEncoderEquivalence.
func (tx *Tx) encodeWALPayload(base *version) ([]byte, uint64) {
	s := tx.s
	seq := base.seq + 1
	buf := s.walEncBuf[:0]
	buf = appendU64(buf, seq)
	countOff := len(buf)
	buf = appendU32(buf, 0) // table count, patched below
	nTables := uint32(0)

	names := make([]string, 0, len(tx.pending))
	for name := range tx.pending {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o := tx.pending[name]
		t := base.tables[name]
		var nextID int64
		if t != nil && o.nextID > t.nextID {
			nextID = o.nextID
		}
		if nextID == 0 && len(o.writes) == 0 && len(o.deletes) == 0 {
			continue
		}
		nTables++
		buf = appendStr(buf, name)
		buf = appendI64(buf, nextID)

		buf = appendU32(buf, uint32(len(o.deletes)))
		if len(o.deletes) > 0 {
			dels := make([]int64, 0, len(o.deletes))
			for id := range o.deletes {
				dels = append(dels, id)
			}
			sort.Slice(dels, func(i, j int) bool { return dels[i] < dels[j] })
			for _, id := range dels {
				buf = appendI64(buf, id)
			}
		}

		buf = appendU32(buf, uint32(len(o.writes)))
		if len(o.writes) > 0 {
			ids := make([]int64, 0, len(o.writes))
			for id := range o.writes {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, id := range ids {
				buf = append(buf, o.writes[id].b...)
			}
		}
	}
	binary.LittleEndian.PutUint32(buf[countOff:], nTables)
	s.walEncBuf = buf // keep the grown capacity for the next commit
	if nTables == 0 {
		return nil, 0
	}
	return buf, seq
}
