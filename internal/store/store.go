package store

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Record is a row as callers build and own it: a flat map from field name
// to value. Supported value types are string, int64, float64, bool,
// time.Time, []int64 and []string. Insert and Put encode a Record into the
// Row the store keeps; Get and Row.Record decode one back. The ID field is
// managed by the store and appears under the "id" key on read.
type Record map[string]any

// IDField is the reserved record key that carries the record identifier.
const IDField = "id"

// ID returns the record identifier, or 0 if the record has none.
func (r Record) ID() int64 {
	id, _ := r[IDField].(int64)
	return id
}

// String returns the string stored under key, or "" if absent or of a
// different type.
func (r Record) String(key string) string {
	s, _ := r[key].(string)
	return s
}

// Int returns the int64 stored under key, or 0 if absent.
func (r Record) Int(key string) int64 {
	n, _ := r[key].(int64)
	return n
}

// Float returns the float64 stored under key, or 0 if absent.
func (r Record) Float(key string) float64 {
	f, _ := r[key].(float64)
	return f
}

// Bool returns the bool stored under key, or false if absent.
func (r Record) Bool(key string) bool {
	b, _ := r[key].(bool)
	return b
}

// Time returns the time.Time stored under key, or the zero time if absent.
func (r Record) Time(key string) time.Time {
	t, _ := r[key].(time.Time)
	return t
}

// IDs returns the []int64 stored under key, or nil if absent.
func (r Record) IDs(key string) []int64 {
	v, _ := r[key].([]int64)
	return v
}

// Strings returns the []string stored under key, or nil if absent.
func (r Record) Strings(key string) []string {
	v, _ := r[key].([]string)
	return v
}

// Store is an embedded transactional record store with multi-version
// concurrency: the committed state is an immutable version reached through
// one atomic pointer, readers pin a version without taking any lock, and
// writers serialize on an internal mutex and publish a copy-on-write
// successor version at commit. The zero value is not usable; construct
// with New (in-memory) or Open (durable).
type Store struct {
	// current is the latest committed version. Readers pin it with a
	// single atomic load; commits and schema changes publish a successor
	// under writeMu. Superseded versions stay alive exactly as long as
	// some reader still holds them, then fall to the garbage collector.
	current atomic.Pointer[version]

	// writeMu serializes every state-changing path: Update transactions
	// (held for their whole lifetime — classic single-writer semantics),
	// optimistic Begin-transaction commits (held only inside Commit),
	// schema registration, Load and Close. Readers never touch it.
	writeMu sync.Mutex
	closed  atomic.Bool

	// Durable write path; all nil/zero on in-memory stores.
	dir     string
	fs      FS       // filesystem seam; nil means the real one
	dirLock *os.File // flock on <dir>/LOCK; nil on non-unix
	wal     *wal
	// degraded flips (once, monotonically) when the durable write path
	// fails — WAL poison, fsync failure, ENOSPC — and makes every
	// subsequent write fail fast with ErrDegraded while the lock-free
	// MVCC read path keeps serving. See health.go.
	degraded      atomic.Pointer[degradedState]
	walEncBuf     []byte // commit-path encode scratch; guarded by writeMu
	snapshotEvery int64
	// replica flips the store into replica mode: local write paths fail
	// with ErrReplica and the only mutations accepted are ApplyReplicated
	// frames and ResetFromSnapshot resyncs. See repl.go.
	replica atomic.Bool
	// epoch is the replication fencing token (>= 1); see epoch.go.
	// Advanced only by AdvanceEpoch (promotion) and snapshot adoption
	// (Load, ResetFromSnapshot); read lock-free everywhere.
	epoch atomic.Uint64
	// replSubs are the committed-frame feed subscribers (WAL shippers).
	// Guarded by writeMu; publication happens inside the commit section.
	replSubs    []*CommitSub
	onError     func(error) // background-failure hook; may be nil
	snapMu      sync.Mutex  // serializes Snapshot; also guards snapErr
	snapErr     error
	snapTrigger chan struct{}
	snapStop    chan struct{}
	snapDone    chan struct{}
}

// New returns an empty store.
func New() *Store {
	s := &Store{}
	s.current.Store(&version{tables: make(map[string]*table)})
	s.epoch.Store(1)
	return s
}

// CreateTable creates a table with the given name. It is an error to create
// a table that already exists.
func (s *Store) CreateTable(name string) error {
	if name == "" {
		return fmt.Errorf("store: empty table name")
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	v := s.current.Load()
	if _, ok := v.tables[name]; ok {
		return fmt.Errorf("store: table %q already exists: %w", name, ErrExists)
	}
	nv := v.withTables()
	nt := newTable(name)
	nt.lastSeq = v.seq
	nv.tables[name] = nt
	s.current.Store(nv)
	return nil
}

// EnsureTable creates the table if it does not already exist. On a
// closed store it is a no-op: the table could never be persisted or
// transacted against anyway.
func (s *Store) EnsureTable(name string) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.closed.Load() {
		return
	}
	v := s.current.Load()
	if _, ok := v.tables[name]; ok {
		return
	}
	nv := v.withTables()
	nt := newTable(name)
	nt.lastSeq = v.seq
	nv.tables[name] = nt
	s.current.Store(nv)
}

// HasTable reports whether the named table exists.
func (s *Store) HasTable(name string) bool {
	_, ok := s.current.Load().tables[name]
	return ok
}

// Tables returns the sorted names of all tables, as of one consistent
// version. Inside a transaction, prefer Tx.Tables, which answers from the
// transaction's pinned snapshot instead of the live head.
func (s *Store) Tables() []string {
	return s.current.Load().tableNames()
}

func (v *version) tableNames() []string {
	names := make([]string, 0, len(v.tables))
	for n := range v.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CreateIndex registers a secondary index on the given field of the named
// table. If unique is true the index enforces uniqueness of non-zero keys.
// Existing rows are indexed immediately; the index appears atomically with
// a new store version, so in-flight readers never observe a half-built
// index.
func (s *Store) CreateIndex(tableName, field string, unique bool) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	v := s.current.Load()
	t, ok := v.tables[tableName]
	if !ok {
		return fmt.Errorf("store: table %q: %w", tableName, ErrNoTable)
	}
	if _, ok := t.indexes[field]; ok {
		return fmt.Errorf("store: index on %s.%s already exists: %w", tableName, field, ErrExists)
	}
	idx := newIndex(field, unique)
	it := t.iter(0, 0)
	for id, r := it.next(); id != 0; id, r = it.next() {
		if err := idx.insert(r, id); err != nil {
			return fmt.Errorf("store: building index %s.%s: %w", tableName, field, err)
		}
	}
	nt := t.clone()
	nt.indexes[field] = idx
	nv := v.withTables()
	nv.tables[tableName] = nt
	s.current.Store(nv)
	return nil
}

// CommitSeq returns the number of transactions committed so far.
func (s *Store) CommitSeq() uint64 {
	return s.current.Load().seq
}

// TableSeq returns the commit sequence of the last committed transaction
// that modified the named table, as of the latest published version, or 0
// for an unknown table. Lock-free (one atomic load plus a map read on an
// immutable version), so callers may consult it per request: a cached
// derivation of table T taken at sequence S is still current as long as
// TableSeq(T) <= S, however many commits other tables have seen since.
func (s *Store) TableSeq(name string) uint64 {
	if t, ok := s.current.Load().tables[name]; ok {
		return t.lastSeq
	}
	return 0
}

// Close marks the store closed and, on durable stores, stops the
// background snapshotter, performs a final WAL fsync and closes the log.
// A cleanly closed durable store is fully durable regardless of sync
// policy. Subsequent transactions fail with ErrClosed; readers already
// holding a pinned version may finish, since reads touch only immutable
// memory. Close is idempotent; it returns the first background snapshot
// or WAL failure, if any.
func (s *Store) Close() error {
	// Taking writeMu drains the in-flight writer, if any, before the WAL
	// shuts down beneath it.
	s.writeMu.Lock()
	already := s.closed.Swap(true)
	if !already {
		s.closeSubsLocked()
	}
	s.writeMu.Unlock()
	if already {
		return nil
	}
	if s.snapStop != nil {
		close(s.snapStop)
		<-s.snapDone
	}
	var err error
	if s.wal != nil {
		err = s.wal.Close()
	}
	if s.dirLock != nil {
		if cerr := s.dirLock.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.snapMu.Lock()
	if err == nil {
		err = s.snapErr
	}
	s.snapMu.Unlock()
	return err
}

// Get returns the record with the given id, decoded into a Record the
// caller owns, outside any transaction, from the latest committed version.
func (s *Store) Get(tableName string, id int64) (Record, error) {
	v := s.current.Load()
	t, ok := v.tables[tableName]
	if !ok {
		return nil, fmt.Errorf("store: table %q: %w", tableName, ErrNoTable)
	}
	r := t.get(id)
	if r.b == "" {
		return nil, fmt.Errorf("store: %s/%d: %w", tableName, id, ErrNotFound)
	}
	return r.Record(), nil
}

// Count returns the number of records in the named table in the latest
// committed version. Inside a transaction, prefer Tx.Count, which answers
// from the transaction's pinned snapshot (including its own writes)
// instead of the live head.
func (s *Store) Count(tableName string) int {
	t, ok := s.current.Load().tables[tableName]
	if !ok {
		return 0
	}
	return t.count
}

// Barrier returns once every Update transaction that was in flight when
// Barrier was called has committed or rolled back. It is the
// read-your-writes handshake for observers notified from inside a
// transaction (e.g. the search index's dirty marks): mark, Barrier, then
// read — the read is guaranteed to see the transaction that produced the
// mark. Optimistic Begin transactions are not covered between Begin and
// Commit, only their commit section is.
func (s *Store) Barrier() {
	s.writeMu.Lock()
	// Deliberately empty critical section: acquiring the writer mutex
	// proves every earlier writer has finished and published its version.
	s.writeMu.Unlock() //nolint:staticcheck // SA2001: empty section is the point
}

// View runs fn inside a read-only transaction pinned to the committed
// version current at the call. fn runs lock-free: it cannot block writers
// and writers cannot block it; it simply never observes commits that land
// after the pin. Any write attempted by fn fails with ErrReadOnly.
func (s *Store) View(fn func(tx *Tx) error) error {
	tx, err := s.Begin(true)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	return fn(tx)
}

// Begin starts an explicit transaction and returns its handle; the caller
// must finish it with Commit or Rollback. Read-only transactions pin the
// current committed version and read it lock-free for as long as the
// handle lives — a paginated scan across many calls sees one frozen
// state, no matter how many commits land meanwhile.
//
// Read-write Begin transactions are optimistic: they buffer writes
// against their pinned snapshot without holding any lock, and Commit
// validates them first-committer-wins — if another transaction committed
// a change to any record this one wrote or deleted (or claimed a serial
// id this one also claimed) after the pin, Commit fails with ErrConflict
// and the transaction's effects are discarded. Callers retry by running
// the transaction again on a fresh snapshot. For unconditional writes,
// Update — which serializes with other writers and cannot conflict — is
// the simpler tool.
func (s *Store) Begin(readonly bool) (*Tx, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return &Tx{s: s, ver: s.current.Load(), readonly: readonly}, nil
}

// Update runs fn inside a read-write transaction. If fn returns nil the
// transaction is committed; otherwise it is rolled back and the error
// returned. Update transactions hold the store's writer mutex for their
// whole lifetime: they serialize with other writers (so fn never needs
// conflict handling — read-modify-write is atomic), while readers
// continue unblocked on earlier versions throughout.
//
// On a durable store the commit is appended to the WAL before it becomes
// visible; under SyncAlways, Update additionally waits — after releasing
// the writer mutex, so other commits proceed and share the fsync — until
// the record is on stable storage.
func (s *Store) Update(fn func(tx *Tx) error) error {
	if err := s.writeGate(); err != nil {
		return err
	}
	s.writeMu.Lock()
	if s.closed.Load() {
		s.writeMu.Unlock()
		return ErrClosed
	}
	tx := &Tx{s: s, ver: s.current.Load(), exclusive: true}
	defer tx.release()
	if err := fn(tx); err != nil {
		return err
	}
	if err := tx.commitLocked(); err != nil {
		return err
	}
	tx.release()
	return s.afterCommit(tx)
}

// afterCommit completes a committed transaction's durability obligations
// outside the writer mutex: waiting for the group-commit fsync under
// SyncAlways and nudging the background snapshotter.
func (s *Store) afterCommit(tx *Tx) error {
	if tx.walSeq == 0 {
		return nil
	}
	if s.wal.policy == SyncAlways {
		if err := s.wal.waitSynced(tx.walSeq); err != nil {
			return err
		}
	}
	s.maybeTriggerSnapshot()
	return nil
}
