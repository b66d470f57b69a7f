package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Compile-time check that the passthrough satisfies the seam the WAL,
// snapshot writer and recovery run on.
var _ FS = osFS{}

// SyncPolicy controls when WAL appends are forced to stable storage.
type SyncPolicy int

const (
	// SyncAlways makes every Update wait until its WAL record is fsynced
	// before returning. Concurrent commits are coalesced into a single
	// fsync by the group-commit batcher, so the cost is shared.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs the WAL in the background every SyncEvery.
	// Commits return as soon as their record reaches the OS; a crash of
	// the machine (not just the process) can lose the last interval.
	SyncInterval
	// SyncOff never fsyncs during operation (a final fsync still happens
	// on Close). Records are flushed to the OS on every commit, so a
	// process kill loses nothing; an OS crash can lose anything the
	// kernel had not written back yet.
	SyncOff
)

// ParseSyncPolicy converts the command-line spelling of a sync policy
// ("always", "interval", "off") to its SyncPolicy value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("store: unknown sync policy %q (want always, interval or off)", s)
}

// String returns the command-line spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// On-disk layout of a data directory:
//
//	<dir>/snapshot.gob           full store snapshot, atomically replaced
//	<dir>/wal-<base>.log         WAL segments; base = first commit seq inside
//
// Each segment starts with an 8-byte magic and holds a sequence of frames:
//
//	[4-byte little-endian payload length][4-byte CRC32 (IEEE) of payload][payload]
//
// where the payload is a self-contained binary encoding of one walRecord
// (see walcodec.go). Frames are self-delimiting and individually
// checksummed so that replay can stop exactly at a torn or corrupt tail
// (committed-prefix semantics). A snapshot is the same frames behind its
// own magic (persist.go).
const (
	walMagic  = "BFWAL001"
	walPrefix = "wal-"
	walSuffix = ".log"
	// snapshotFile keeps its gob-era name although the contents are WAL
	// frames: the benchmark's layer trace stats this exact path for
	// snapshot.bytes, and the operations runbook tells operators to copy
	// it. Renaming it is a change to the benchmark, not to the format.
	snapshotFile = "snapshot.gob"

	walFrameHeaderSize = 8
	// walMaxFrameSize bounds a single frame; anything larger is treated as
	// corruption rather than an allocation request.
	walMaxFrameSize = 1 << 30
)

// walRecord is the replayable unit of one committed transaction: the full
// record-set the commit installed, in apply order.
type walRecord struct {
	// Seq is the commit sequence number; records are strictly contiguous.
	Seq    uint64
	Tables []walTableChange
}

// walTableChange carries one table's portion of a commit: deletions first,
// then whole-record writes (the store's install order), plus the table's
// serial-id high-water mark.
type walTableChange struct {
	Name    string
	NextID  int64 // post-commit nextID; 0 = unchanged
	Deletes []int64
	Writes  []Row
}

// walSegment describes one on-disk WAL segment.
type walSegment struct {
	base uint64 // first commit seq this segment may contain
	path string
	size int64
}

func walSegmentPath(dir string, base uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", walPrefix, base, walSuffix))
}

// parseWALSegmentName extracts the base seq from a segment file name.
func parseWALSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
		return 0, false
	}
	base, err := strconv.ParseUint(name[len(walPrefix):len(name)-len(walSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}

// wal is the append-only write-ahead log of a durable store, with a
// group-commit batcher: appends happen under mu in commit order, and a
// single syncer goroutine turns any number of pending appends into one
// fsync. Committers running under SyncAlways wait on syncCond until the
// syncer has covered their sequence number.
type wal struct {
	dir     string
	fs      FS // filesystem seam; osFS in production
	policy  SyncPolicy
	every   time.Duration // fsync period under SyncInterval
	onError func(error)   // invoked once when the log fails; may be nil

	// mu protects the current segment (file, writer, sizes) and the
	// retired-segment list. Appends, rotation and fsync all run under it;
	// commits already serialize on the store's writer mutex, so this
	// mutex is uncontended except against the syncer.
	mu        sync.Mutex
	f         File
	bw        *bufio.Writer
	cur       walSegment
	retired   []walSegment // ascending base order
	lastSeq   uint64       // last appended commit seq
	closing   bool
	appendErr error // sticky: a failed append poisons the log

	// syncMu guards the durability horizon. Lock order: mu before syncMu.
	syncMu   sync.Mutex
	syncCond *sync.Cond
	synced   uint64 // highest seq known to be on stable storage
	syncErr  error  // sticky fsync failure
	stopped  bool

	bytes  atomic.Int64  // total live WAL bytes across all segments
	fsyncs atomic.Uint64 // number of fsync calls issued

	wake chan struct{} // buffered(1): nudges the syncer
	stop chan struct{}
	done chan struct{}
}

func newWAL(dir string, fsys FS, policy SyncPolicy, every time.Duration, onError func(error)) *wal {
	if fsys == nil {
		fsys = osFS{}
	}
	w := &wal{
		dir:     dir,
		fs:      fsys,
		policy:  policy,
		every:   every,
		onError: onError,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	w.syncCond = sync.NewCond(&w.syncMu)
	return w
}

// start launches the background syncer. Must be called exactly once, after
// the current segment is open.
func (w *wal) start() { go w.syncLoop() }

// append writes the frame for seq to the current segment. It does not
// fsync; durability is the syncer's job. Called with the store's
// writer mutex held, so seqs arrive in strictly increasing order.
//
// Under SyncInterval and SyncOff the frame is flushed to the OS before
// returning, so even an unsynced commit survives a process kill. Under
// SyncAlways the bytes may stay in the user-space buffer: the committer
// does not return until the syncer has flushed AND fsynced past its seq,
// so nothing observable is lost — and the commit hot path sheds a write
// syscall, which is worth it at group-commit rates.
func (w *wal) append(seq uint64, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closing {
		return ErrClosed
	}
	if w.appendErr != nil {
		return w.appendErr
	}
	if w.f == nil { // a failed rotation poisons the log; belt and braces
		return fmt.Errorf("store: wal has no active segment")
	}
	if len(payload) > walMaxFrameSize {
		// Replay would reject the frame as corruption, silently dropping
		// an acknowledged commit — refuse it here, before anything is
		// installed or written.
		return fmt.Errorf("store: transaction of %d bytes exceeds the wal frame limit (%d)", len(payload), walMaxFrameSize)
	}
	var hdr [walFrameHeaderSize]byte
	putFrameHeader(hdr[:], payload)
	err := w.writeAll(hdr[:], payload)
	if err == nil && w.policy != SyncAlways {
		err = w.bw.Flush()
	}
	if err != nil {
		// A partial frame may now be on disk. Poison the log: accepting
		// further appends would bury valid records behind a corrupt frame.
		w.appendErr = fmt.Errorf("store: wal append: %w", err)
		return w.appendErr
	}
	w.lastSeq = seq
	n := int64(walFrameHeaderSize + len(payload))
	w.cur.size += n
	w.bytes.Add(n)
	return nil
}

// putFrameHeader fills hdr (walFrameHeaderSize bytes) with the length and
// checksum of payload: the write side of walFrameReader.
func putFrameHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
}

func (w *wal) writeAll(chunks ...[]byte) error {
	for _, c := range chunks {
		if _, err := w.bw.Write(c); err != nil {
			return err
		}
	}
	return nil
}

// waitSynced blocks until seq is durable, the WAL fails, or it is closed.
// This is the commit side of group commit: any number of committers park
// here and are released together by one fsync.
func (w *wal) waitSynced(seq uint64) error {
	select {
	case w.wake <- struct{}{}:
	default: // a sync round is already pending; it will cover us
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	for w.synced < seq && w.syncErr == nil && !w.stopped {
		w.syncCond.Wait()
	}
	if w.syncErr != nil {
		return w.syncErr
	}
	if w.synced < seq {
		return ErrClosed
	}
	return nil
}

func (w *wal) syncLoop() {
	defer close(w.done)
	var tickC <-chan time.Time
	if w.policy == SyncInterval {
		t := time.NewTicker(w.every)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case <-w.stop:
			w.sync() // final fsync: clean shutdown is always durable
			return
		case <-w.wake:
			w.drainCommitters()
			w.sync()
		case <-tickC:
			w.sync()
		}
	}
}

// drainCommitters widens the group-commit batch: before fsyncing, the
// syncer yields its scheduling quantum a few times so committers that are
// already runnable — typically the herd just released by the previous
// broadcast — get to append first and ride this fsync instead of the next
// one. With no runnable committers the yields return immediately, so an
// idle or serial workload pays nanoseconds, not latency.
func (w *wal) drainCommitters() {
	if w.policy != SyncAlways {
		return
	}
	for i := 0; i < 4; i++ {
		runtime.Gosched()
	}
}

// sync flushes the current segment, then fsyncs it with mu RELEASED, so
// new appends land while the disk works. When the fsync returns, the
// durability horizon advances to everything flushed before it started and
// every committer waiting at or below it is released together. The
// appends that accumulated during the fsync form the next round's batch —
// that overlap is what turns N concurrent commits into ~1 fsync per disk
// round trip instead of N.
func (w *wal) sync() {
	w.mu.Lock()
	target := w.lastSeq
	f := w.f
	var err error
	if f != nil {
		err = w.bw.Flush()
	}
	w.mu.Unlock()

	w.syncMu.Lock()
	pending := w.synced < target && w.syncErr == nil
	w.syncMu.Unlock()
	if f == nil || !pending {
		return
	}
	if err == nil {
		err = f.Sync()
		w.fsyncs.Add(1)
		if err != nil {
			// The segment may have been rotated — sealed with its own
			// fsync and closed — between our capture and this call;
			// everything up to target is durable and the error is an
			// artifact of the stale descriptor.
			w.mu.Lock()
			rotated := w.f != f
			w.mu.Unlock()
			if rotated {
				err = nil
			}
		}
	}

	w.syncMu.Lock()
	firstFailure := false
	if err != nil {
		if w.syncErr == nil {
			w.syncErr = fmt.Errorf("store: wal fsync: %w", err)
			firstFailure = true
		}
		err = w.syncErr
	} else if target > w.synced {
		w.synced = target
	}
	if !firstFailure {
		w.syncCond.Broadcast()
	}
	w.syncMu.Unlock()

	if firstFailure {
		// Fail closed: a log that cannot reach stable storage must stop
		// accepting commits — otherwise, under SyncInterval/SyncOff (and
		// even under SyncAlways, where the install precedes the wait),
		// acknowledged in-memory state would diverge from durable state
		// without bound. And tell the host process now, not at Close.
		// Waiters are woken only afterwards, so a committer told its
		// commit failed finds the store already refusing writes.
		w.mu.Lock()
		if w.appendErr == nil {
			w.appendErr = err
		}
		w.mu.Unlock()
		if w.onError != nil {
			w.onError(err)
		}
		w.syncMu.Lock()
		w.syncCond.Broadcast()
		w.syncMu.Unlock()
	}
}

// rotateLocked seals the current segment (flush, fsync, close) and opens a
// fresh one whose base is the next commit seq. Callers hold mu.
func (w *wal) rotateLocked() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.fsyncs.Add(1)
	if err := w.f.Close(); err != nil {
		return err
	}
	w.retired = append(w.retired, w.cur)
	base := w.lastSeq + 1
	f, size, err := createWALSegment(w.fs, w.dir, base)
	if err != nil {
		// No segment to append to: poison the log so subsequent commits
		// fail cleanly instead of dereferencing a nil writer.
		w.f, w.bw = nil, nil
		w.appendErr = fmt.Errorf("store: wal rotation: %w", err)
		return err
	}
	w.f = f
	w.bw = bufio.NewWriter(f)
	w.cur = walSegment{base: base, path: walSegmentPath(w.dir, base), size: size}
	w.bytes.Add(size)

	// Everything appended so far now sits in a sealed, fsynced segment.
	w.syncMu.Lock()
	if w.lastSeq > w.synced {
		w.synced = w.lastSeq
	}
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
	return nil
}

// truncateTo drops every WAL segment made fully redundant by a snapshot
// covering commits <= upTo. The current segment is sealed and rotated
// first so that it too becomes collectable. Retired segments that still
// hold records beyond upTo (commits that landed while the snapshot was
// being written) survive until the next truncation.
func (w *wal) truncateTo(upTo uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closing {
		return ErrClosed
	}
	if w.lastSeq >= w.cur.base { // current segment is non-empty
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	// Filter into a fresh slice so a failed Remove mid-loop cannot leave
	// w.retired aliasing half-compacted entries.
	keep := make([]walSegment, 0, len(w.retired))
	var firstErr error
	for i, seg := range w.retired {
		// Segment i holds seqs [seg.base, next-1], where next is the base
		// of the following segment (or of the current one for the last).
		next := w.cur.base
		if i+1 < len(w.retired) {
			next = w.retired[i+1].base
		}
		if firstErr == nil && next <= upTo+1 {
			if err := w.fs.Remove(seg.path); err != nil && !os.IsNotExist(err) {
				firstErr = fmt.Errorf("store: truncating wal: %w", err)
				keep = append(keep, seg)
				continue
			}
			w.bytes.Add(-seg.size)
			continue
		}
		keep = append(keep, seg)
	}
	w.retired = keep
	return firstErr
}

// Close performs a final sync, stops the syncer and closes the segment
// file. Safe to call more than once.
func (w *wal) Close() error {
	w.mu.Lock()
	if w.closing {
		w.mu.Unlock()
		<-w.done
		return nil
	}
	w.closing = true
	w.mu.Unlock()

	close(w.stop)
	<-w.done // syncLoop has run its final sync

	w.syncMu.Lock()
	w.stopped = true
	err := w.syncErr
	w.syncCond.Broadcast()
	w.syncMu.Unlock()

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		if cerr := w.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		w.f = nil
	}
	if err == nil {
		err = w.appendErr
	}
	return err
}

// totalBytes returns the live WAL size across all segments.
func (w *wal) totalBytes() int64 { return w.bytes.Load() }

// createWALSegment creates a fresh segment file with its magic header
// already flushed and its directory entry fsynced — without the dirent
// write-back, a power loss could drop the whole segment (and every
// fsynced commit inside) with no trace for replay to miss.
func createWALSegment(fsys FS, dir string, base uint64) (File, int64, error) {
	path := walSegmentPath(dir, base)
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("store: creating wal segment: %w", err)
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		fsys.Remove(path)
		return nil, 0, fmt.Errorf("store: writing wal header: %w", err)
	}
	if err := syncDir(fsys, dir); err != nil {
		f.Close()
		fsys.Remove(path)
		return nil, 0, fmt.Errorf("store: syncing wal dir: %w", err)
	}
	return f, int64(len(walMagic)), nil
}

// poison marks the log failed: every subsequent append returns err. Used
// when the in-memory install diverged from what was already appended —
// continuing to log would let recovery replay state that was never
// visible.
func (w *wal) poison(err error) {
	w.mu.Lock()
	if w.appendErr == nil {
		w.appendErr = err
	}
	w.mu.Unlock()
	if w.onError != nil {
		w.onError(err)
	}
}

// listWALSegments returns the data directory's WAL segments in ascending
// base order.
func listWALSegments(fsys FS, dir string) ([]walSegment, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []walSegment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		base, ok := parseWALSegmentName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, walSegment{base: base, path: filepath.Join(dir, e.Name()), size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	return segs, nil
}

// walFrameReader iterates the frames of one segment or snapshot,
// distinguishing a clean end (io.EOF) from a torn or corrupt tail
// (errTornFrame).
type walFrameReader struct {
	r   *bufio.Reader
	off int64 // offset of the next unread byte
}

// errTornFrame marks an unreadable frame: a partial header, a payload
// shorter than its declared length, a CRC mismatch, or an implausible
// length. The offset of the bad frame's start is carried alongside.
type tornFrameError struct {
	off    int64
	reason string
}

func (e *tornFrameError) Error() string {
	return fmt.Sprintf("torn or corrupt wal frame at offset %d: %s", e.off, e.reason)
}

// newWALFrameReader reads and checks the 8-byte magic (walMagic for a
// segment, snapMagic for a snapshot) and returns a reader positioned at
// the first frame.
func newWALFrameReader(f io.Reader, magic string) (*walFrameReader, error) {
	r := bufio.NewReaderSize(f, 1<<20)
	got := make([]byte, len(magic))
	n, err := io.ReadFull(r, got)
	if err != nil || string(got) != magic {
		return nil, &tornFrameError{off: 0, reason: fmt.Sprintf("header %q, want %q", got[:n], magic)}
	}
	return &walFrameReader{r: r, off: int64(n)}, nil
}

// next returns the payload of the next frame. io.EOF signals a clean end
// at a frame boundary; *tornFrameError signals an unreadable tail starting
// at the returned reader offset.
func (fr *walFrameReader) next() ([]byte, error) {
	start := fr.off
	var hdr [walFrameHeaderSize]byte
	n, err := io.ReadFull(fr.r, hdr[:])
	fr.off += int64(n)
	if err == io.EOF {
		return nil, io.EOF // clean end at a frame boundary
	}
	if err != nil {
		return nil, &tornFrameError{off: start, reason: "partial frame header"}
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length > walMaxFrameSize {
		return nil, &tornFrameError{off: start, reason: "implausible frame length"}
	}
	var payload []byte
	if int(length) <= fr.r.Size() {
		payload = make([]byte, length)
		n, err = io.ReadFull(fr.r, payload)
	} else {
		// Grow by doubling from the buffer size up to the declared length:
		// a genuine big frame costs a few large copies, and a corrupt
		// length costs about twice the bytes the input holds, not an
		// allocation of up to walMaxFrameSize.
		payload = make([]byte, 0, fr.r.Size())
		for err == nil && len(payload) < int(length) {
			if len(payload) == cap(payload) {
				grown := make([]byte, len(payload), min(2*cap(payload), int(length)))
				payload = grown[:copy(grown, payload)]
			}
			m, rerr := io.ReadFull(fr.r, payload[len(payload):min(cap(payload), int(length))])
			payload, err = payload[:len(payload)+m], rerr
		}
		n = len(payload)
	}
	fr.off += int64(n)
	if err != nil {
		return nil, &tornFrameError{off: start, reason: "short frame payload"}
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, &tornFrameError{off: start, reason: "payload checksum mismatch"}
	}
	return payload, nil
}
