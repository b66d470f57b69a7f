// Package store implements the embedded, transactional entity store that
// underpins the B-Fabric reproduction. The original system sat on a
// relational DBMS accessed through an ORM; this package provides the
// equivalent substrate from scratch: named tables of flat records with
// serial identifiers, secondary and unique indexes, multi-version snapshot
// transactions with commit/rollback, ordered scans, a declarative query
// engine with a cost-based planner, and a durable write path (write-ahead
// log, group commit, snapshots, crash recovery).
//
// # Concurrency model
//
// The store is multi-versioned. Every commit publishes a new immutable
// version of the whole store — a copy-on-write derivation that shares all
// untouched tables, record chunks and index postings with its predecessor
// — through a single atomic pointer. The consequences define the API's
// behavior under load:
//
//   - Readers never block and are never blocked. View and Begin(true) pin
//     the version current at the call with one atomic load and then run
//     lock-free to completion on that frozen state, no matter how many
//     commits land meanwhile. A long paginated Query{Cursor} walk observes
//     exactly one version.
//   - Update transactions serialize with each other on an internal writer
//     mutex, exactly like the classic single-writer model, so their
//     read-modify-write cycles need no conflict handling.
//   - Begin(false) transactions are optimistic: they buffer writes against
//     their snapshot without locking and validate first-committer-wins at
//     Commit, failing with ErrConflict if a record they wrote was changed
//     (or a serial id they claimed was taken) after their pin.
//
// Superseded versions are reclaimed by the garbage collector once the last
// reader drops them. See docs/concurrency.md for the full isolation model,
// its interaction with the WAL, and operator guidance.
//
// # Bulk writes
//
// Transactions are linear in their write-set size. The pending overlay
// maintains its own per-index key maps, so unique-constraint checks and
// overlay-aware lookups are O(1) map probes regardless of how many
// writes are buffered, and commit applies index changes as per-key
// deltas — each touched key's postings are merged exactly once, each
// touched chunk and index shard is copied at most once, however large
// the batch. Bulk loaders should therefore batch thousands of records
// per transaction to amortize per-commit costs; see docs/ingest.md for
// guidance.
//
// # Durability
//
// A store built with New lives purely in memory. A store built with Open
// is durable: every committed transaction is appended to a write-ahead
// log in the data directory before its version is published, a
// group-commit batcher coalesces concurrent commits into shared fsyncs
// (policy-controlled via SyncAlways, SyncInterval and SyncOff), and
// background snapshotting — which serializes a pinned version without
// pausing writers — truncates the log once it outgrows a threshold.
// Reopening the directory replays the log over the latest snapshot and
// restores exactly the committed prefix, even after a hard kill
// mid-append. Only data is logged: tables and secondary indexes are
// re-registered by the caller after Open (idempotently, as internal/core
// does). See DESIGN.md ("Durability") for the record format and the
// recovery sequence.
//
// # Records, rows and aliasing
//
// Callers write Records: flat maps from field name to a value of one of
// the supported types (string, int64, float64, bool, time.Time, []int64,
// []string). Insert and Put encode a Record once into a Row — the codec's
// bytes for it, in an immutable string — and that Row is what the store
// holds, logs, snapshots and ships. Every write replaces a whole row
// inside a fresh version, so Tx.GetRef and the Rows a Tx.Query returns
// hand out the stored rows themselves: consistent snapshots that remain
// valid after the transaction ends. Row accessors read values out of the
// bytes; Tx.Get and Row.Record decode a Record the caller may mutate. See
// DESIGN.md for the full aliasing contract.
//
// # Declarative queries
//
// Tx.Query compiles a Query value — one table, a conjunction of Eq/In/
// Range predicates, an ordering, a limit and a keyset cursor — against
// the transaction's pinned version and returns a streaming, zero-copy
// Rows iterator. A planner picks the cheapest access path (unique-index
// point lookup, most-selective secondary-index postings, or a bounded
// ordered id scan) and pushes the remaining predicates into the iterator
// as residual filters; Tx.Explain returns the exact Plan the executor
// follows. See docs/query.md for the query model, planner rules and
// cursor semantics.
//
// # Aggregation
//
// Query.Count, Query.GroupBy and Query.Aggregate build aggregate forms
// (Count/Min/Max/Sum, optionally grouped) executed by Tx.QueryCount and
// Tx.Aggregate through the same planner. Predicate-free counts read the
// table's maintained live counter O(1); fully-indexed counts and
// groupings sum index postings lengths or walk the index's keys,
// adjusting for the transaction's overlay without materializing rows;
// everything else folds inside the streaming iterator. The per-table
// counts and postings are themselves the maintained counters — updated
// by every commit, rebuilt by recovery and replica replay. Tx.ExplainAgg
// names the chosen strategy. See the Aggregation section of
// docs/query.md.
package store
