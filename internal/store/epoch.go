package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// The replication epoch is the store's fencing token: a counter that
// starts at 1, is bumped (durably, via AdvanceEpoch) exactly when a
// follower is promoted to primary, and travels with every snapshot and
// every replication handshake. Two histories that share a prefix but
// were extended by different primaries carry different epochs, so a
// resurrected old primary — or a follower that kept following one —
// presents a lower epoch and is refused with ErrFencedEpoch instead of
// silently merging its phantom commits into the new timeline.
//
// On disk the epoch lives in two places: in the snapshot's header frame
// (so a streamed resync or a restored backup adopts the epoch of the
// state it carries) and in a dedicated EPOCH file written by AdvanceEpoch (so a
// promotion is durable immediately, without rewriting a possibly-large
// snapshot). Open restores the maximum of the two.

// epochFile is the durable promotion marker inside the data directory.
const epochFile = "EPOCH"

// FencedEpochError reports a replication epoch conflict: the remote
// side of a handshake (or an incoming snapshot) belongs to an older
// timeline than this store. It matches ErrFencedEpoch with errors.Is.
type FencedEpochError struct {
	Local  uint64 // this node's epoch
	Remote uint64 // the peer's (or snapshot's) epoch
}

func (e *FencedEpochError) Error() string {
	return fmt.Sprintf("replication epoch fenced: local epoch %d, remote epoch %d", e.Local, e.Remote)
}

// Is makes errors.Is(err, ErrFencedEpoch) match.
func (e *FencedEpochError) Is(target error) bool { return target == ErrFencedEpoch }

// Epoch returns the store's replication epoch (always >= 1).
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// AdvanceEpoch durably advances the replication epoch to
// max(current, floor)+1 and returns the new value. floor is the highest
// epoch the caller has observed elsewhere (a promoting follower passes
// its primary's last advertised epoch), so the new epoch fences both
// this store's own history and the one it was following.
//
// The new epoch is persisted — and fsynced — BEFORE it is published:
// a store that crashes mid-promotion recovers either at its old epoch
// (still a replica, still refusing writes) or at the new one, never as
// a writable node holding a stale fencing token. On a durable store a
// persistence failure degrades the store and leaves the epoch
// unchanged; the promotion must be treated as failed.
func (s *Store) AdvanceEpoch(floor uint64) (uint64, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if d := s.degraded.Load(); d != nil {
		return 0, &DegradedError{Cause: d.cause, Since: d.since}
	}
	next := s.epoch.Load()
	if floor > next {
		next = floor
	}
	next++
	if s.wal != nil {
		if err := s.writeEpochFile(next); err != nil {
			s.degrade(err)
			return 0, fmt.Errorf("store: persisting epoch %d: %w", next, err)
		}
	}
	s.epoch.Store(next)
	return next, nil
}

// writeEpochFile persists the epoch to <dir>/EPOCH with the same
// atomic-write protocol as snapshots: temp file, fsync, rename, fsync
// the directory.
func (s *Store) writeEpochFile(epoch uint64) error {
	fsys := s.fileSystem()
	path := filepath.Join(s.dir, epochFile)
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = io.WriteString(f, strconv.FormatUint(epoch, 10)+"\n")
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return syncDir(fsys, s.dir)
}

// readEpochFile reads <dir>/EPOCH. A missing file is 0 (pre-epoch
// directory), not an error; an unparsable one is ErrCorrupt.
func readEpochFile(fsys FS, dir string) (uint64, error) {
	f, err := fsys.OpenFile(filepath.Join(dir, epochFile), os.O_RDONLY, 0)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	buf, err := io.ReadAll(io.LimitReader(f, 64))
	if err != nil {
		return 0, err
	}
	v, perr := strconv.ParseUint(string(bytes.TrimSpace(buf)), 10, 64)
	if perr != nil {
		return 0, fmt.Errorf("store: epoch file: %v: %w", perr, ErrCorrupt)
	}
	return v, nil
}
