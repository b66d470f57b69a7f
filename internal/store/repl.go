package store

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// This file is the store's replication seam: everything a WAL shipper
// (internal/repl) needs from the primary — an ordered feed of committed
// frames, random access to the on-disk log for offset catch-up, and a
// consistent pinned snapshot for new joiners — and everything a follower
// needs — applying replicated frames through the same codec and
// copy-on-write install as local commits, resyncing wholesale from a
// snapshot, and a write gate that refuses local mutations.
//
// The unit of replication is the WAL frame payload itself (walcodec.go):
// the exact bytes appended to the primary's log, CRC and all, are what
// travel to followers and what a durable follower appends to its own log.
// One codec, one apply path, one checksum — the frame a follower replays
// is bit-identical to the frame primary-side recovery would replay.

// ReplFrame is one committed transaction as shipped to subscribers: the
// commit sequence plus the WAL payload encoding the full record-set.
// The payload is a private copy; receivers may retain it.
type ReplFrame struct {
	Seq     uint64
	Payload []byte
}

// CommitSub is a subscription to the store's committed-frame feed.
type CommitSub struct {
	// C delivers frames in strictly increasing seq order, starting at
	// FromSeq+1. The channel is closed when the subscriber falls behind
	// (its buffer fills), when it is cancelled, or when the store closes;
	// a closed channel means the feed is no longer gapless and the
	// receiver must catch up again (WALFrames or a snapshot).
	C <-chan ReplFrame
	// FromSeq is the commit sequence of the version that was current at
	// subscription time: an exact cut. Every commit after FromSeq will
	// appear on C (until the channel closes); every commit at or before
	// it will not.
	FromSeq uint64

	ch     chan ReplFrame
	s      *Store
	closed bool // guarded by s.writeMu
}

// SubscribeCommits registers a subscriber on the committed-frame feed
// with the given channel buffer (<=0 means a default of 256). The
// returned cut (FromSeq) and the feed are atomic with respect to
// commits: no frame is ever skipped between them. Delivery happens
// inside the commit section; a subscriber that stops draining has its
// channel closed rather than ever blocking commits.
func (s *Store) SubscribeCommits(buf int) (*CommitSub, error) {
	if buf <= 0 {
		buf = 256
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	sub := &CommitSub{ch: make(chan ReplFrame, buf), s: s, FromSeq: s.current.Load().seq}
	sub.C = sub.ch
	s.replSubs = append(s.replSubs, sub)
	return sub, nil
}

// Cancel removes the subscription and closes its channel. Idempotent.
func (sub *CommitSub) Cancel() {
	s := sub.s
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	sub.closeLocked()
}

// closeLocked closes the subscription channel once and marks it dead.
// Callers hold writeMu.
func (sub *CommitSub) closeLocked() {
	if sub.closed {
		return
	}
	sub.closed = true
	close(sub.ch)
	s := sub.s
	for i, x := range s.replSubs {
		if x == sub {
			s.replSubs = append(s.replSubs[:i], s.replSubs[i+1:]...)
			break
		}
	}
}

// publishCommit fans one committed frame out to every subscriber. Called
// with writeMu held, immediately after the new version is published, so
// subscribers observe commits in order with no gaps relative to their
// cut. The payload is the store's reusable encode buffer; one private
// copy is shared by all subscribers. A subscriber whose buffer is full
// is dropped (channel closed) — a slow follower re-syncs, it never
// backpressures the commit path.
func (s *Store) publishCommit(seq uint64, payload []byte) {
	if len(s.replSubs) == 0 {
		return
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	fr := ReplFrame{Seq: seq, Payload: cp}
	for i := 0; i < len(s.replSubs); {
		sub := s.replSubs[i]
		select {
		case sub.ch <- fr:
			i++
		default:
			sub.closeLocked() // removes s.replSubs[i]; do not advance i
		}
	}
}

// closeSubsLocked drops every subscriber. Called with writeMu held, on
// Close and on ResetFromSnapshot (a reset starts a new timeline; frame
// subscribers must re-establish their cut).
func (s *Store) closeSubsLocked() {
	for len(s.replSubs) > 0 {
		s.replSubs[0].closeLocked()
	}
}

// WaitDurable blocks until the commit with the given sequence is on
// stable storage (sharing the group-commit fsync), and returns the WAL's
// sticky failure if the log has died. On a non-durable store it returns
// immediately: there is no stronger durability to wait for. Shippers
// call this before forwarding a frame, a log range or a snapshot, so a
// follower can never hold a commit the primary would lose in a crash;
// followers call it before reporting a replicated position.
func (s *Store) WaitDurable(seq uint64) error {
	if s.wal == nil {
		return nil
	}
	return s.wal.waitSynced(seq)
}

// SetReplica switches the store in or out of replica mode. In replica
// mode every local write path (Update, optimistic Commit) fails fast
// with ErrReplica; ApplyReplicated and ResetFromSnapshot — the
// replication stream itself — are exempt, as are schema registration
// calls (CreateTable/CreateIndex), which a follower process performs
// identically to its primary at wiring time.
func (s *Store) SetReplica(on bool) { s.replica.Store(on) }

// IsReplica reports whether the store is in replica mode.
func (s *Store) IsReplica() bool { return s.replica.Load() }

// WALFrames streams the raw frame payloads of commits fromSeq onward, in
// order, from the on-disk log to fn. It returns ErrSeqGone when fromSeq
// has been truncated away by a snapshot (the caller must catch up from a
// snapshot instead) and stops cleanly at the log's readable tail — a
// frame that is still being appended, or a torn tail, ends the stream
// without error, so callers must track how far they actually got. Any
// error from fn aborts the stream and is returned verbatim.
//
// Reading happens outside the WAL mutex on an immutable prefix of the
// segment files; only the segment list capture and a buffer flush hold
// the lock.
func (s *Store) WALFrames(fromSeq uint64, fn func(seq uint64, payload []byte) error) error {
	if fromSeq > s.CommitSeq() {
		return nil
	}
	if s.wal == nil {
		return ErrSeqGone // no log: history before the current state is gone
	}
	w := s.wal
	w.mu.Lock()
	if w.closing {
		w.mu.Unlock()
		return ErrClosed
	}
	if w.bw != nil {
		if err := w.bw.Flush(); err != nil {
			w.mu.Unlock()
			return err
		}
	}
	segs := make([]walSegment, 0, len(w.retired)+1)
	segs = append(segs, w.retired...)
	if w.f != nil {
		segs = append(segs, w.cur)
	}
	w.mu.Unlock()

	next := fromSeq
	for _, seg := range segs {
		f, err := w.fs.OpenFile(seg.path, os.O_RDONLY, 0)
		if os.IsNotExist(err) {
			continue // truncated between capture and open; gap check below decides
		}
		if err != nil {
			return err
		}
		stop, err := walFramesSegment(f, next, &next, fn)
		f.Close()
		if err != nil || stop {
			return err
		}
	}
	return nil
}

// walFramesSegment reads one segment for WALFrames. It updates *next as
// frames are delivered and reports stop=true on a torn/partial tail
// (end of the readable log).
func walFramesSegment(f File, from uint64, next *uint64, fn func(seq uint64, payload []byte) error) (stop bool, err error) {
	fr, err := newWALFrameReader(f, walMagic)
	if err != nil {
		// An unreadable header can only be a segment created mid-crash
		// (or under a concurrent reset); nothing to stream from it.
		return true, nil
	}
	for {
		payload, err := fr.next()
		if err == io.EOF {
			return false, nil
		}
		if err != nil {
			// Torn tail: the readable prefix ends here. The frames beyond
			// are either still being appended or lost to a crash — both
			// mean "stop", not "fail".
			return true, nil
		}
		// Routing needs only the seq. The frame CRC has vouched for the
		// bytes, and the follower's full decode stays the corruption
		// check (ErrCorrupt there forces a snapshot resync).
		seq, ok := walRecordSeq(payload)
		if !ok {
			return true, nil
		}
		if seq < *next {
			continue // below the requested start (or duplicate overlap)
		}
		if seq != *next {
			// The sequence we need is not on disk anymore (truncated) or
			// the log is not contiguous here: either way offset catch-up
			// cannot serve it.
			return true, ErrSeqGone
		}
		if err := fn(seq, payload); err != nil {
			return true, err
		}
		*next = seq + 1
	}
}

// ApplyReplicated installs one replicated WAL frame — the payload bytes
// exactly as shipped from the primary — as this store's next commit. It
// returns the store's resulting commit sequence.
//
// Semantics mirror recovery replay: a frame at or below the current
// sequence is skipped (catch-up overlap is expected and idempotent); a
// frame that skips ahead fails with ErrReplicaGap and changes nothing; a
// frame that does not decode, or whose apply hits an index violation
// (divergence), fails with ErrCorrupt. On a durable store the frame is
// appended to the local WAL before the version is published — if the
// append fails the store degrades, exactly like a local commit. The
// fsync is the caller's: the returned seq is visible to local readers
// but not yet stable, and one WaitDurable(seq) after a run of frames
// covers the whole run with a single group fsync.
func (s *Store) ApplyReplicated(payload []byte) (uint64, error) {
	rec, err := decodeWALRecord(payload)
	if err != nil {
		return s.CommitSeq(), fmt.Errorf("store: replicated frame: %v: %w", err, ErrCorrupt)
	}
	s.writeMu.Lock()
	base := s.current.Load()
	if s.closed.Load() {
		s.writeMu.Unlock()
		return base.seq, ErrClosed
	}
	if rec.Seq <= base.seq {
		s.writeMu.Unlock()
		return base.seq, nil
	}
	if rec.Seq != base.seq+1 {
		s.writeMu.Unlock()
		return base.seq, fmt.Errorf("store: replicated frame seq %d after %d: %w", rec.Seq, base.seq, ErrReplicaGap)
	}
	if d := s.degraded.Load(); d != nil {
		s.writeMu.Unlock()
		return base.seq, &DegradedError{Cause: d.cause, Since: d.since}
	}
	walAppended := false
	if s.wal != nil {
		if err := s.wal.append(rec.Seq, payload); err != nil {
			s.degrade(err)
			s.writeMu.Unlock()
			return base.seq, err
		}
		walAppended = true
	}

	// Build a pending overlay equivalent to the original transaction's.
	// applyOverlay skips tables absent from its base, so tables the
	// primary created after this follower's snapshot are pre-created on a
	// derived base first (private until published; never seen half-built).
	vbase := base
	pending := make(map[string]*txTable, len(rec.Tables))
	for _, tc := range rec.Tables {
		if vbase.tables[tc.Name] == nil {
			if vbase == base {
				vbase = base.withTables()
			}
			nt := newTable(tc.Name)
			nt.lastSeq = base.seq
			vbase.tables[tc.Name] = nt
		}
		o := &txTable{nextID: tc.NextID}
		if len(tc.Deletes) > 0 {
			o.deletes = make(map[int64]bool, len(tc.Deletes))
			for _, id := range tc.Deletes {
				o.deletes[id] = true
			}
		}
		if len(tc.Writes) > 0 {
			o.writes = make(map[int64]Record, len(tc.Writes))
			for _, r := range tc.Writes {
				o.writes[r.ID()] = r
			}
		}
		pending[tc.Name] = o
	}
	nv, err := applyOverlay(vbase, pending)
	if err != nil {
		// An index violation during a replicated apply means this replica
		// has diverged from the primary (or the frame is corrupt despite
		// its checksum). Refuse loudly; if the frame already reached the
		// local log, poison it — recovery must not replay a frame that
		// was never published here.
		err = fmt.Errorf("store: replicated apply seq %d: %v: %w", rec.Seq, err, ErrCorrupt)
		if walAppended {
			s.wal.poison(err)
			s.degrade(err)
		}
		s.writeMu.Unlock()
		return base.seq, err
	}
	s.current.Store(nv)
	s.publishCommit(rec.Seq, payload) // chained subscribers see the same feed
	s.writeMu.Unlock()

	if walAppended {
		s.maybeTriggerSnapshot()
	}
	return rec.Seq, nil
}

// PinnedSnapshot pins the current committed version and returns its
// commit sequence together with a function that serializes exactly that
// version, however long after the pin it runs. The version is immutable,
// so the serialization races with nothing; shippers use this to stream a
// consistent snapshot to a joining follower while commits continue.
func (s *Store) PinnedSnapshot() (uint64, func(io.Writer) error) {
	v, epoch := s.current.Load(), s.epoch.Load()
	return v.seq, func(w io.Writer) error {
		_, err := writeSnapshotVersion(v, epoch, w)
		return err
	}
}

// ResetFromSnapshot replaces the store's entire contents with the
// snapshot read from r (as produced by Save/PinnedSnapshot) and returns
// the snapshot's commit sequence. Unlike Load it does not require an
// empty store: it is the follower's resync path, discarding whatever
// state the replica had — ahead, behind, or diverged — for the
// primary's. In-flight readers are unaffected: they keep their pinned
// versions; the reset is one atomic pointer swap.
//
// On a durable store the new timeline is made crash-safe before it is
// published: the local WAL is reset (all segments removed, a fresh one
// based after the snapshot seq) and the snapshot is written to the data
// directory, in that order — a crash between the two recovers the old
// state cleanly, never a mix. Any failure on that path degrades the
// store: a replica that cannot persist its resync must refuse further
// replication rather than silently diverge after a restart.
func (s *Store) ResetFromSnapshot(r io.Reader) (uint64, error) {
	nv, snapEpoch, err := readSnapshot(r)
	if err != nil {
		return 0, err
	}
	// Lock order: snapMu before writeMu mirrors no existing path (Snapshot
	// takes snapMu alone; commits take writeMu alone) so no cycle is
	// possible; holding both serializes the reset against background
	// snapshots AND commits for its whole critical section.
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if d := s.degraded.Load(); d != nil {
		return 0, &DegradedError{Cause: d.cause, Since: d.since}
	}
	// Fencing, inner layer: a snapshot from an older epoch must never
	// replace a newer timeline, whatever the transport said. (The
	// handshake normally refuses this long before any snapshot flows;
	// this is the last line of defense.)
	if cur := s.epoch.Load(); snapEpoch < cur {
		return 0, &FencedEpochError{Local: cur, Remote: snapEpoch}
	}
	if s.wal != nil {
		if err := s.wal.reset(nv.seq); err != nil {
			s.degrade(err)
			return 0, fmt.Errorf("store: resetting wal for snapshot resync: %w", err)
		}
		if _, err := s.writeSnapshotFile(filepath.Join(s.dir, snapshotFile), nv, snapEpoch); err != nil {
			s.degrade(err)
			return 0, fmt.Errorf("store: persisting resync snapshot: %w", err)
		}
	}
	s.current.Store(nv)
	s.epoch.Store(snapEpoch) // adopt the primary's timeline, epoch and all
	// Frame subscribers were promised a gapless feed from their cut; a
	// reset moves the head wholesale, so drop them and let them re-cut.
	s.closeSubsLocked()
	return nv.seq, nil
}

// reset discards the whole log and starts a fresh segment based just
// after lastSeq. Used by snapshot resync: the discarded frames belong to
// an abandoned timeline, so unlike truncateTo this removes segments that
// extend beyond the snapshot too.
func (w *wal) reset(lastSeq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closing {
		return ErrClosed
	}
	if w.appendErr != nil {
		return w.appendErr
	}
	if w.f != nil {
		w.bw.Flush() // best effort; the segment is about to be removed
		w.f.Close()
		w.f, w.bw = nil, nil
	}
	segs := append(append([]walSegment(nil), w.retired...), w.cur)
	for _, seg := range segs {
		if seg.path == "" {
			continue
		}
		if err := w.fs.Remove(seg.path); err != nil && !os.IsNotExist(err) {
			w.appendErr = fmt.Errorf("store: wal reset: %w", err)
			return w.appendErr
		}
	}
	w.retired = nil
	w.bytes.Store(0)
	f, size, err := createWALSegment(w.fs, w.dir, lastSeq+1)
	if err != nil {
		w.appendErr = fmt.Errorf("store: wal reset: %w", err)
		return w.appendErr
	}
	w.f = f
	w.bw = bufio.NewWriter(f)
	w.cur = walSegment{base: lastSeq + 1, path: walSegmentPath(w.dir, lastSeq+1), size: size}
	w.bytes.Store(size)
	w.lastSeq = lastSeq

	// The durability horizon restarts at the snapshot seq: everything at
	// or below it is covered by the snapshot file, everything above does
	// not exist yet on this timeline. Waiters, if any, re-evaluate.
	w.syncMu.Lock()
	w.synced = lastSeq
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
	return nil
}
