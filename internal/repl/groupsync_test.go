package repl

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// The follower's durability contract (docs/replication.md, "Follower
// durability"): frames become visible to the replica's readers as they
// are applied, but the follower reports a position — LastApplied, lag,
// WaitForSeq, Promote — only after one WaitDurable per drained read
// buffer has put it on stable storage. The tests below pin the batch
// rule, the stranded-frame corner, and the reported-implies-durable
// guarantee over a filesystem that forgets whatever was not fsynced.

// openDurable opens a data dir with the reference schema and no
// background snapshots, so every fsync counted belongs to a commit.
func openDurable(t testing.TB, dir string, sync store.SyncPolicy, fsys store.FS) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.DurabilityOptions{Sync: sync, SnapshotEvery: -1, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := ensureTestSchema(s); err != nil {
		t.Fatal(err)
	}
	return s
}

// putPadded commits the i-th row of the deterministic burst workload:
// about a kilobyte per frame, so a burst spans many socket reads.
func putPadded(t testing.TB, s *store.Store, i int) {
	t.Helper()
	err := s.Update(func(tx *store.Tx) error {
		_, err := tx.Insert("acct", store.Record{
			"login": fmt.Sprintf("u%d", i), "gen": int64(i), "pad": strings.Repeat("x", 1000),
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// burstPrimary returns a shipping primary whose log holds n padded
// single-insert commits.
func burstPrimary(t testing.TB, n int) (*store.Store, string) {
	t.Helper()
	primary := openDurable(t, t.TempDir(), store.SyncOff, nil)
	for i := 1; i <= n; i++ {
		putPadded(t, primary, i)
	}
	srv := NewServer(primary)
	srv.Heartbeat = 50 * time.Millisecond
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return primary, addr
}

// assertPrefixOfBurst requires s to be byte-identical to a store that ran
// the first s.CommitSeq() commits of the burst workload and nothing else
// (and was promoted as often as s, since the epoch is part of the state).
func assertPrefixOfBurst(t *testing.T, s *store.Store) {
	t.Helper()
	ref := newPrimary(t)
	for i := 1; i <= int(s.CommitSeq()); i++ {
		putPadded(t, ref, i)
	}
	for ref.Epoch() < s.Epoch() {
		if _, err := ref.AdvanceEpoch(0); err != nil {
			t.Fatal(err)
		}
	}
	assertConverged(t, ref, s)
}

func fsyncs(t *testing.T, s *store.Store) uint64 {
	t.Helper()
	info, ok := s.WALInfo()
	if !ok {
		t.Fatal("store has no WAL")
	}
	return info.Fsyncs
}

// catchUpLog captures the follower's one catch-up log line.
type catchUpLog struct {
	mu                      sync.Mutex
	seen                    bool
	frames, syncs, versions int
}

func (c *catchUpLog) logf(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		t.Log(msg)
		var seq uint64
		var frames, bytes, syncs, versions int
		var took string
		if n, _ := fmt.Sscanf(msg, "repl: caught up to seq %d: %d frames, %d bytes, %d sync batches, %d versions in %s",
			&seq, &frames, &bytes, &syncs, &versions, &took); n == 6 {
			c.mu.Lock()
			c.seen, c.frames, c.syncs, c.versions = true, frames, syncs, versions
			c.mu.Unlock()
		}
	}
}

// wait returns the captured counts once the line has been logged.
func (c *catchUpLog) wait(t *testing.T) (frames, syncs, versions int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		seen, frames, syncs, versions := c.seen, c.frames, c.syncs, c.versions
		c.mu.Unlock()
		if seen {
			return frames, syncs, versions
		}
		if time.Now().After(deadline) {
			t.Fatal("no catch-up log line")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerGroupSync pins the batch rule from both sides: catching up
// from the primary's log rides a few fsyncs and as few store versions,
// because the read buffer rarely drains; a live trickle still pays
// exactly one fsync per frame, because it drains after every one.
func TestFollowerGroupSync(t *testing.T) {
	const burst, trickle = 2000, 200
	primary, addr := burstPrimary(t, burst)

	fstore := openDurable(t, t.TempDir(), store.SyncAlways, nil)
	before := fsyncs(t, fstore)
	var line catchUpLog
	fstore.SetReplica(true)
	f := NewFollower(fstore, addr, FollowerOptions{Logf: line.logf(t)})
	f.Start()
	t.Cleanup(f.Close)
	if err := f.WaitForSeq(burst, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	caughtUp := fsyncs(t, fstore) - before
	t.Logf("catch-up: %d frames on %d fsyncs", burst, caughtUp)
	if caughtUp > burst/8 {
		t.Fatalf("catch-up of %d frames cost %d fsyncs, want at most %d", burst, caughtUp, burst/8)
	}
	frames, syncs, versions := line.wait(t)
	if frames != burst || versions > syncs+1 {
		t.Fatalf("catch-up logged %d frames in %d versions over %d sync batches; want %d frames, at most one version per sync batch (+1)",
			frames, versions, syncs, burst)
	}

	for i := 1; i <= trickle; i++ {
		putPadded(t, primary, burst+i)
		if err := f.WaitForSeq(primary.CommitSeq(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if got := fsyncs(t, fstore) - before - caughtUp; got != trickle {
		t.Fatalf("%d trickled frames cost %d fsyncs, want one each", trickle, got)
	}
	assertConverged(t, primary, fstore)
}

// TestFollowerTrickleVersions: frames that arrive one at a time — each
// read drains the buffer — are applied one version per frame, exactly as
// before batching. The stand-in primary advertises the last frame as its
// head, so the catch-up line reports the trickle.
func TestFollowerTrickleVersions(t *testing.T) {
	const n = 20
	src := newPrimary(t)
	sub, err := src.SubscribeCommits(n)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	for i := 0; i < n; i++ {
		putAcct(t, src, fmt.Sprintf("t%d", i), 1)
	}
	frames := make([]store.ReplFrame, n)
	for i := range frames {
		frames[i] = <-sub.C
	}

	fstore := store.New()
	mustSchema(t, fstore)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	defer close(hold)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, _, err := readHello(conn); err != nil {
			return
		}
		writeHelloReply(conn, statusOK, frames[n-1].Seq, 1)
		for _, fr := range frames {
			writeMsg(conn, msgFrame, fr.Payload)
			for deadline := time.Now().Add(5 * time.Second); fstore.CommitSeq() < fr.Seq && time.Now().Before(deadline); {
				time.Sleep(100 * time.Microsecond)
			}
		}
		<-hold
	}()

	var line catchUpLog
	fstore.SetReplica(true)
	f := NewFollower(fstore, ln.Addr().String(), FollowerOptions{Logf: line.logf(t)})
	f.Start()
	defer f.Close()
	if err := f.WaitForSeq(frames[n-1].Seq, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	got, syncs, versions := line.wait(t)
	if got != n || versions != n || syncs != n {
		t.Fatalf("trickle of %d frames logged %d frames, %d versions, %d sync batches; want %d of each", n, got, versions, syncs, n)
	}
}

// TestFrameThenHeartbeatInOneRead: the drained-buffer check runs before
// every read, not only after frames, so a frame that shares its buffer
// with a trailing heartbeat is reported without waiting for more traffic.
func TestFrameThenHeartbeatInOneRead(t *testing.T) {
	src := newPrimary(t)
	sub, err := src.SubscribeCommits(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	putAcct(t, src, "only", 1)
	frame := <-sub.C

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	defer close(hold)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, _, err := readHello(conn); err != nil {
			return
		}
		var msg bytes.Buffer
		writeHelloReply(&msg, statusOK, frame.Seq, 1)
		writeMsg(&msg, msgFrame, frame.Payload)
		writeMsg(&msg, msgHeartbeat, u64payload(frame.Seq))
		conn.Write(msg.Bytes()) // one write, then silence
		<-hold
	}()

	fstore := store.New()
	mustSchema(t, fstore)
	f := startFollower(t, fstore, ln.Addr().String())
	if err := f.WaitForSeq(frame.Seq, 2*time.Second); err != nil {
		t.Fatalf("frame stranded behind the heartbeat that shared its buffer: %v", err)
	}
}

// TestFollowerCrashKeepsReportedPrefix cuts the power at seeded points of
// a catch-up: at the instant of the cut, whatever LastApplied the
// follower had reported must be recoverable from the bytes that were
// fsynced, and what recovers must be an exact prefix of the primary's
// history.
func TestFollowerCrashKeepsReportedPrefix(t *testing.T) {
	const burst = 1500
	_, addr := burstPrimary(t, burst)

	// A clean pass measures how many writes and fsyncs a catch-up issues.
	probe := newSyncedFS()
	pstore := openDurable(t, t.TempDir(), store.SyncAlways, probe)
	probe.arm(1<<30, func() {})
	pf := startFollower(t, pstore, addr)
	if err := pf.WaitForSeq(burst, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	pf.Close()
	probe.mu.Lock()
	total := probe.ops
	probe.mu.Unlock()

	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 6; trial++ {
		at := 1 + rng.Intn(total)
		fsys := newSyncedFS()
		fstore := openDurable(t, t.TempDir(), store.SyncAlways, fsys)
		fstore.SetReplica(true)
		f := NewFollower(fstore, addr, FollowerOptions{})
		after := t.TempDir()
		var reported uint64
		var copyErr error
		fsys.arm(at, func() {
			reported = f.Status().LastApplied
			copyErr = fsys.crashCopyLocked(after)
		})
		f.Start()
		if err := f.WaitForSeq(burst, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		f.Close()
		fsys.fire() // this run batched into fewer operations than the probe: cut at the end
		if copyErr != nil {
			t.Fatal(copyErr)
		}

		recovered := openDurable(t, after, store.SyncOff, nil)
		t.Logf("trial %d: cut at op %d/%d, reported %d, recovered %d", trial, at, total, reported, recovered.CommitSeq())
		if recovered.CommitSeq() < reported {
			t.Fatalf("trial %d: follower reported seq %d, only %d survived the power cut", trial, reported, recovered.CommitSeq())
		}
		assertPrefixOfBurst(t, recovered)
	}
}

// TestPromoteDuringBurstIsDurable: Promote stops the stream wherever it
// is, and the timeline it announces — epoch and starting seq — must
// survive a power cut taken the moment it returns.
func TestPromoteDuringBurstIsDurable(t *testing.T) {
	const burst = 3000
	_, addr := burstPrimary(t, burst)

	fsys := newSyncedFS()
	fstore := openDurable(t, t.TempDir(), store.SyncAlways, fsys)
	f := startFollower(t, fstore, addr)
	if err := f.WaitForSeq(1, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	promo, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	after := t.TempDir()
	if err := fsys.crashCopy(after); err != nil {
		t.Fatal(err)
	}
	t.Logf("promoted at seq %d of %d", promo.LastApplied, burst)

	recovered := openDurable(t, after, store.SyncOff, nil)
	if recovered.CommitSeq() != promo.LastApplied || recovered.Epoch() != promo.Epoch {
		t.Fatalf("promotion announced seq %d epoch %d; seq %d epoch %d survived the power cut",
			promo.LastApplied, promo.Epoch, recovered.CommitSeq(), recovered.Epoch())
	}
	assertPrefixOfBurst(t, recovered)
}

// TestCatchUpShipsOnlyDurable: a commit whose fsync failed is installed on
// the primary (under SyncAlways the install precedes the wait) and may sit
// in its log file, yet a crash would lose it. Neither catch-up path may
// hand it to a follower: only the live feed used to wait for durability.
func TestCatchUpShipsOnlyDurable(t *testing.T) {
	for _, path := range []string{"log offset", "snapshot"} {
		t.Run(path, func(t *testing.T) {
			tracked := newSyncedFS()
			faulty := store.NewFaultFS(tracked)
			primary := openDurable(t, t.TempDir(), store.SyncAlways, faulty)
			for i := 1; i <= 10; i++ {
				putPadded(t, primary, i)
			}
			faulty.FailNext(store.OpSync, store.FaultErr)
			err := primary.Update(func(tx *store.Tx) error {
				_, err := tx.Insert("acct", store.Record{"login": "lost", "gen": int64(11)})
				return err
			})
			if err == nil || primary.CommitSeq() != 11 {
				t.Fatalf("setup: want a failed fsync behind an installed commit 11, got err=%v at seq %d", err, primary.CommitSeq())
			}
			after := t.TempDir()
			if err := tracked.crashCopy(after); err != nil {
				t.Fatal(err)
			}
			wouldRecover := openDurable(t, after, store.SyncOff, nil).CommitSeq()
			if wouldRecover != 10 {
				t.Fatalf("setup: primary would recover to seq %d, want 10", wouldRecover)
			}

			_, addr := startServer(t, primary)
			fstore := store.New()
			mustSchema(t, fstore)
			fstore.SetReplica(true)
			var sessions atomic.Int32
			f := NewFollower(fstore, addr, FollowerOptions{Logf: func(format string, args ...any) {
				if strings.HasPrefix(format, "repl: session:") {
					sessions.Add(1)
				}
			}})
			f.resync.Store(path == "snapshot")
			f.Start()
			defer f.Close()

			// Two whole sessions have come and gone: the primary had every
			// chance to ship the commit.
			deadline := time.Now().Add(10 * time.Second)
			for sessions.Load() < 2 && fstore.CommitSeq() <= wouldRecover {
				if time.Now().After(deadline) {
					t.Fatal("follower never completed two sessions")
				}
				time.Sleep(time.Millisecond)
			}
			if got := fstore.CommitSeq(); got > wouldRecover {
				t.Fatalf("follower holds seq %d, the primary would recover to %d", got, wouldRecover)
			}
		})
	}
}
