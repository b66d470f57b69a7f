package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// DurabilityOptions configures the durable write path of a store opened
// with Open.
type DurabilityOptions struct {
	// Sync selects the WAL sync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the background fsync period under SyncInterval.
	// Defaults to 25ms; ignored by the other policies.
	SyncEvery time.Duration
	// SnapshotEvery is the WAL size in bytes that triggers a background
	// snapshot + WAL truncation. 0 means the 64 MiB default; a negative
	// value disables automatic snapshotting (Snapshot can still be called
	// explicitly).
	SnapshotEvery int64
	// OnError, when set, is called with failures from background work
	// (snapshotting) that would otherwise surface only at Close — while
	// the WAL keeps growing. Called from the snapshot goroutine.
	OnError func(error)
	// FS substitutes the filesystem under the durable write path. nil
	// means the real filesystem; tests inject a FaultFS to exercise
	// crash points. The data-directory lock always uses the real
	// filesystem (its semantics are tied to OS file descriptors).
	FS FS
}

const (
	defaultSyncEvery     = 25 * time.Millisecond
	defaultSnapshotEvery = 64 << 20
)

// Open opens (or creates) a durable store rooted at dir. It recovers the
// committed state by loading the most recent snapshot, if any, and
// replaying the write-ahead log over it, then arms the WAL for new
// commits.
//
// Recovery implements committed-prefix semantics: a torn or corrupt tail
// on the most recent WAL segment — the signature of a crash mid-append —
// is cut off, and every transaction before it is restored exactly.
// Corruption anywhere else is reported as ErrCorrupt rather than silently
// dropping committed data.
//
// Only data is logged. Schema (tables created empty, secondary indexes) is
// the caller's to re-register after Open; registration through
// internal/core is idempotent, and CreateIndex rebuilds from the recovered
// rows.
func Open(dir string, opts DurabilityOptions) (*Store, error) {
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = defaultSyncEvery
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = osFS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	lock, err := lockDataDir(dir)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Store, error) {
		if lock != nil {
			lock.Close()
		}
		return nil, err
	}
	s := New()
	s.dir = dir
	s.fs = fsys
	s.dirLock = lock

	snapPath := filepath.Join(dir, snapshotFile)
	if _, err := fsys.Stat(snapPath); err == nil {
		if err := s.LoadFile(snapPath); err != nil {
			return fail(fmt.Errorf("store: loading snapshot: %w", err))
		}
	} else if !os.IsNotExist(err) {
		return fail(err)
	}

	segs, err := listWALSegments(fsys, dir)
	if err != nil {
		return fail(err)
	}
	if err := s.replayWAL(segs); err != nil {
		return fail(err)
	}

	// The restored epoch is the max of the EPOCH file (a promotion after
	// the last snapshot) and the snapshot's own (already adopted by
	// LoadFile); New started it at 1.
	fileEpoch, err := readEpochFile(fsys, dir)
	if err != nil {
		return fail(err)
	}
	if fileEpoch > s.epoch.Load() {
		s.epoch.Store(fileEpoch)
	}

	s.onError = opts.OnError
	w := newWAL(dir, fsys, opts.Sync, opts.SyncEvery, s.walFailure)
	if err := w.armSegments(segs, s.CommitSeq()); err != nil {
		return fail(err)
	}
	s.wal = w
	w.start()

	if opts.SnapshotEvery > 0 {
		s.snapshotEvery = opts.SnapshotEvery
		s.snapTrigger = make(chan struct{}, 1)
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop()
	}
	return s, nil
}

// replayWAL applies every WAL record beyond the snapshot's seq, in commit
// order, and truncates a torn tail off the last segment. The store — and
// therefore its current version — is not yet shared with any reader, so
// replay mutates the version in place instead of deriving copy-on-write
// successors per record.
func (s *Store) replayWAL(segs []walSegment) error {
	for i, seg := range segs {
		last := i == len(segs)-1
		if err := s.replaySegment(seg, last); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) replaySegment(seg walSegment, last bool) error {
	fsys := s.fileSystem()
	f, err := fsys.OpenFile(seg.path, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()

	torn := func(off int64, cause error) error {
		if !last {
			// Records after this point in later segments are intact, so
			// cutting here would drop committed transactions from the
			// middle of the history.
			return fmt.Errorf("store: wal segment %s: %v: %w", seg.path, cause, ErrCorrupt)
		}
		if err := fsys.Truncate(seg.path, off); err != nil {
			return fmt.Errorf("store: truncating torn wal tail: %w", err)
		}
		return nil
	}

	fr, err := newWALFrameReader(f, walMagic)
	if err != nil {
		var tfe *tornFrameError
		if errors.As(err, &tfe) {
			// A file shorter than the magic can only be a segment created
			// right at a crash; resetting it to a bare header keeps it
			// usable. A full-size header that does not match is real
			// corruption — the frames behind it may hold acknowledged
			// commits, so refuse rather than wipe them.
			if !last || seg.size >= int64(len(walMagic)) {
				return fmt.Errorf("store: wal segment %s: %v: %w", seg.path, err, ErrCorrupt)
			}
			if err := fsys.Truncate(seg.path, 0); err != nil {
				return err
			}
			nf, err := fsys.OpenFile(seg.path, os.O_WRONLY, 0o644)
			if err != nil {
				return err
			}
			defer nf.Close()
			if _, err := nf.Write([]byte(walMagic)); err != nil {
				return err
			}
			return nf.Sync()
		}
		return err
	}
	for {
		payload, err := fr.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			var tfe *tornFrameError
			if errors.As(err, &tfe) {
				return torn(tfe.off, err)
			}
			return err
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			// The frame checksum passed but the payload does not decode:
			// same handling as a torn frame.
			return torn(fr.off-int64(walFrameHeaderSize+len(payload)), err)
		}
		seq := s.current.Load().seq
		if rec.Seq <= seq {
			continue // already covered by the snapshot
		}
		if rec.Seq != seq+1 {
			return fmt.Errorf("store: wal gap: have seq %d, next record is %d: %w",
				seq, rec.Seq, ErrCorrupt)
		}
		if err := applyWALRecord(s.current.Load(), rec); err != nil {
			return err
		}
	}
}

// applyWALRecord installs one decoded record IN PLACE into v, mirroring
// the commit-time apply order (per table: deletions, then whole-record
// writes) and maintaining whatever indexes v's tables carry. Record slots
// are stamped with the record's sequence so that conflict detection
// resumes correctly across restarts. It is the one install path of both
// WAL replay and snapshot load (readSnapshot), and v must be private to
// the caller: the current version during Open, or a version being built.
func applyWALRecord(v *version, rec walRecord) error {
	for _, tc := range rec.Tables {
		t, ok := v.tables[tc.Name]
		if !ok {
			t = newTable(tc.Name)
			v.tables[tc.Name] = t
		}
		for _, id := range tc.Deletes {
			if old := t.get(id); old != nil {
				for _, ix := range t.indexes {
					ix.remove(old, id)
				}
				t.del(id, rec.Seq)
			}
		}
		// Two-phase index maintenance, mirroring the commit path: clear
		// old entries of every rewritten row, then insert — a
		// unique-value swap within one transaction must replay exactly
		// as it committed.
		for _, r := range tc.Writes {
			if old := t.get(r.ID()); old != nil {
				for _, ix := range t.indexes {
					ix.remove(old, r.ID())
				}
			}
		}
		for _, r := range tc.Writes {
			id := r.ID()
			for _, ix := range t.indexes {
				if err := ix.insert(r, id); err != nil {
					return fmt.Errorf("store: replaying %s/%d: %v: %w", tc.Name, id, err, ErrCorrupt)
				}
			}
			t.put(id, r, rec.Seq)
		}
		if tc.NextID > t.nextID {
			t.nextID = tc.NextID
		}
		t.lastSeq = rec.Seq
	}
	v.seq = rec.Seq
	return nil
}

// armSegments points the WAL at the replayed directory state: it reopens
// the last segment for appending (creating the first one on a fresh
// directory) and records the earlier segments as retired.
func (w *wal) armSegments(segs []walSegment, lastSeq uint64) error {
	w.lastSeq = lastSeq
	w.synced = lastSeq // whatever replay saw is already on disk
	if len(segs) == 0 {
		f, size, err := createWALSegment(w.fs, w.dir, lastSeq+1)
		if err != nil {
			return err
		}
		w.f = f
		w.bw = bufio.NewWriter(f)
		w.cur = walSegment{base: lastSeq + 1, path: walSegmentPath(w.dir, lastSeq+1), size: size}
		w.bytes.Add(size)
		return nil
	}
	cur := segs[len(segs)-1]
	// Replay may have truncated a torn tail; trust the file, not the
	// directory listing taken before replay.
	info, err := w.fs.Stat(cur.path)
	if err != nil {
		return err
	}
	cur.size = info.Size()
	f, err := w.fs.OpenFile(cur.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopening wal segment: %w", err)
	}
	w.f = f
	w.bw = bufio.NewWriter(f)
	w.cur = cur
	w.retired = append(w.retired, segs[:len(segs)-1]...)
	var total int64
	for _, seg := range segs[:len(segs)-1] {
		total += seg.size
	}
	w.bytes.Add(total + cur.size)
	return nil
}

// Snapshot writes a full snapshot of the committed state to the data
// directory (atomically replacing the previous one) and truncates WAL
// segments the snapshot has made redundant. It is a no-op error on
// non-durable stores. Safe to call concurrently with commits: the
// serialized state is a consistent cut, and commits that land while it is
// being written stay in the WAL until the next snapshot.
func (s *Store) Snapshot() error {
	if s.wal == nil {
		return fmt.Errorf("store: Snapshot on a non-durable store")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	seq, err := s.writeSnapshotFile(filepath.Join(s.dir, snapshotFile), s.current.Load(), s.epoch.Load())
	if err != nil {
		s.degradeIfNoSpace(err)
		return err
	}
	return s.wal.truncateTo(seq)
}

// snapshotLoop runs background snapshots when the WAL outgrows the
// configured threshold. Triggers collapse: at most one snapshot runs at a
// time and at most one more is queued.
func (s *Store) snapshotLoop() {
	defer close(s.snapDone)
	for {
		select {
		case <-s.snapStop:
			return
		case <-s.snapTrigger:
			if s.wal.totalBytes() < s.snapshotEvery {
				continue // a competing snapshot already shrank the WAL
			}
			err := s.Snapshot()
			s.snapMu.Lock()
			// A later success clears an earlier transient failure: the
			// WAL retained everything in the meantime, so nothing was at
			// risk and Close should not report a long-resolved condition.
			s.snapErr = err
			s.snapMu.Unlock()
			if err != nil && s.onError != nil {
				s.onError(fmt.Errorf("background snapshot: %w", err))
			}
		}
	}
}

// maybeTriggerSnapshot nudges the background snapshotter if the WAL has
// outgrown its threshold. Called after every durable commit; cheap.
func (s *Store) maybeTriggerSnapshot() {
	if s.snapTrigger == nil || s.wal.totalBytes() < s.snapshotEvery {
		return
	}
	select {
	case s.snapTrigger <- struct{}{}:
	default:
	}
}

// syncDir fsyncs a directory so that a just-renamed file inside it is
// durable.
func syncDir(fsys FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WALInfo reports the live state of a durable store's write-ahead log.
type WALInfo struct {
	Dir       string
	Policy    SyncPolicy
	LastSeq   uint64 // last appended commit seq
	SyncedSeq uint64 // durability horizon
	Fsyncs    uint64 // fsyncs issued since Open
	Segments  int    // live segment files, including the active one
	Bytes     int64  // total live WAL bytes
}

// WALInfo returns the WAL state, or ok=false for a non-durable store.
func (s *Store) WALInfo() (WALInfo, bool) {
	if s.wal == nil {
		return WALInfo{}, false
	}
	w := s.wal
	w.mu.Lock()
	info := WALInfo{
		Dir:      w.dir,
		Policy:   w.policy,
		LastSeq:  w.lastSeq,
		Segments: len(w.retired) + 1,
		Bytes:    w.totalBytes(),
		Fsyncs:   w.fsyncs.Load(),
	}
	w.mu.Unlock()
	w.syncMu.Lock()
	info.SyncedSeq = w.synced
	w.syncMu.Unlock()
	return info, true
}

// Durable reports whether the store writes through a WAL.
func (s *Store) Durable() bool { return s.wal != nil }

// SegmentInfo describes one WAL segment as found on disk.
type SegmentInfo struct {
	Path     string
	Base     uint64 // first seq the segment may contain
	Size     int64
	Records  int
	FirstSeq uint64 // 0 when empty
	LastSeq  uint64 // 0 when empty
	Torn     bool   // unreadable tail present
}

// DirInfo describes the on-disk state of a data directory.
type DirInfo struct {
	Dir          string
	HasSnapshot  bool
	SnapshotSeq  uint64
	SnapshotSize int64
	SnapshotTime time.Time
	Segments     []SegmentInfo
	// LastSeq is the highest commit seq recovery would restore. It stops
	// advancing at mid-history damage: records beyond a torn non-final
	// segment or a sequence gap are on disk but Open will refuse the
	// directory.
	LastSeq uint64
	// Damaged reports mid-history damage — a torn non-final segment or a
	// gap in the commit sequence (e.g. a missing segment) — the cases
	// recovery refuses with ErrCorrupt instead of repairing.
	Damaged bool
	// Epoch is the replication epoch recovery would restore: the max of
	// the EPOCH file and the snapshot's embedded epoch, at least 1.
	Epoch uint64
}

// InspectDir reads a data directory without opening or mutating it:
// snapshot metadata plus a per-segment record census. Torn tails are
// reported, not repaired.
func InspectDir(dir string) (*DirInfo, error) {
	info := &DirInfo{Dir: dir}
	snapPath := filepath.Join(dir, snapshotFile)
	if st, err := os.Stat(snapPath); err == nil {
		info.HasSnapshot = true
		info.SnapshotSize = st.Size()
		info.SnapshotTime = st.ModTime()
		f, err := os.Open(snapPath)
		if err != nil {
			return nil, err
		}
		// The whole snapshot is decoded, not just its header frame: only
		// the header's row counts, met by the chunks, prove the file
		// complete — which is what a backup is verified for.
		v, epoch, err := readSnapshot(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		info.SnapshotSeq = v.seq
		info.LastSeq = v.seq
		info.Epoch = epoch
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	if fileEpoch, err := readEpochFile(osFS{}, dir); err != nil {
		return nil, err
	} else if fileEpoch > info.Epoch {
		info.Epoch = fileEpoch
	}
	if info.Epoch == 0 {
		info.Epoch = 1
	}

	segs, err := listWALSegments(osFS{}, dir) // already in ascending base order
	if err != nil {
		return nil, err
	}
	// Mirror replay's contiguity rule: records at or below the snapshot
	// seq are redundant; beyond it each record must be exactly the next
	// seq, or recovery will refuse the directory.
	expected := info.SnapshotSeq
	for i, seg := range segs {
		si := SegmentInfo{Path: seg.path, Base: seg.base, Size: seg.size}
		f, err := os.Open(seg.path)
		if os.IsNotExist(err) {
			// A live server's background truncation can remove a segment
			// between our listing and this read; inspection of a live
			// directory is best-effort (documented), not an error.
			continue
		}
		if err != nil {
			return nil, err
		}
		fr, err := newWALFrameReader(f, walMagic)
		if err != nil {
			si.Torn = true
		} else {
			for {
				payload, err := fr.next()
				if err == io.EOF {
					break
				}
				if err != nil {
					si.Torn = true
					break
				}
				rec, err := decodeWALRecord(payload)
				if err != nil {
					si.Torn = true
					break
				}
				if si.Records == 0 {
					si.FirstSeq = rec.Seq
				}
				si.Records++
				si.LastSeq = rec.Seq
				switch {
				case rec.Seq <= expected:
					// covered by the snapshot (or a duplicate replay skips)
				case rec.Seq == expected+1 && !info.Damaged:
					expected++
					info.LastSeq = rec.Seq
				default:
					info.Damaged = true // sequence gap: replay cannot get here
				}
			}
		}
		f.Close()
		if si.Torn && i < len(segs)-1 {
			// Later segments hold records recovery will never reach.
			info.Damaged = true
		}
		info.Segments = append(info.Segments, si)
	}
	return info, nil
}
