package repl

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// TestKillNineFollowerConvergence proves the replication acceptance
// property end to end with a real process boundary: a follower process
// replicates from an in-parent primary, acknowledging on stdout each
// LastApplied it reports (which the follower publishes only once the seq
// is fsynced in its local WAL). The parent SIGKILLs it mid-stream — twice:
//
//  1. While the primary's WAL still holds everything, so the restarted
//     follower catches up via log offset.
//  2. After the primary snapshots and truncates its WAL, so offset
//     catch-up is impossible and the restarted follower must take the
//     full-snapshot path.
//
// After the final catch-up the parent SIGKILLs once more, recovers the
// follower's directory and requires it byte-identical to the primary's
// serialized state at the same seq.
//
// The child re-executes this test binary with BFREPL_CHILD set; see
// killNineFollowerChild below.
func TestKillNineFollowerConvergence(t *testing.T) {
	if os.Getenv("BFREPL_CHILD") == "1" {
		killNineFollowerChild()
		return
	}
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}

	primary, err := store.Open(t.TempDir(), store.DurabilityOptions{Sync: store.SyncOff, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	mustSchema(t, primary)
	_, addr := startServer(t, primary)
	followerDir := t.TempDir()

	next := int64(1)
	commitTo := func(n int64) {
		for ; next <= n; next++ {
			putAcct(t, primary, fmt.Sprintf("u%d", next), next)
		}
	}

	// Phase A: history exists before the follower ever joins; the child
	// catches up and follows live commits.
	commitTo(20)
	child := startKillChild(t, followerDir, addr)
	child.waitAck(t, 20)
	bg := make(chan struct{})
	go func() { commitTo(40); close(bg) }()
	child.waitAck(t, 25) // provably mid-stream
	child.kill(t)
	<-bg // the primary keeps committing past the corpse

	// Phase B: the primary's WAL still reaches back to the follower's
	// seq — the restarted child replays the gap from shipped frames.
	child = startKillChild(t, followerDir, addr)
	child.waitAck(t, 40)
	bg = make(chan struct{})
	go func() { commitTo(60); close(bg) }()
	child.waitAck(t, 45)
	child.kill(t)
	<-bg

	// Phase C: snapshot + truncation destroys the log the follower would
	// need; only the full-snapshot path can catch it up now.
	if err := primary.Snapshot(); err != nil {
		t.Fatal(err)
	}
	child = startKillChild(t, followerDir, addr)
	child.waitAck(t, 60)
	child.kill(t) // final kill -9: convergence must be ON DISK

	fs, err := store.Open(followerDir, store.DurabilityOptions{Sync: store.SyncAlways, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("recovering follower dir after kill -9: %v", err)
	}
	defer fs.Close()
	if err := ensureTestSchema(fs); err != nil {
		t.Fatal(err)
	}
	if got, want := fs.CommitSeq(), primary.CommitSeq(); got != want {
		t.Fatalf("recovered follower at seq %d, primary at %d", got, want)
	}
	assertConverged(t, primary, fs)
}

// ensureTestSchema registers the reference schema, tolerating prior
// registration (recovered directories may already carry parts of it).
func ensureTestSchema(s *store.Store) error {
	for _, tbl := range []string{"acct", "feed"} {
		if err := s.CreateTable(tbl); err != nil && !errors.Is(err, store.ErrExists) {
			return err
		}
	}
	if err := s.CreateIndex("acct", "login", true); err != nil && !errors.Is(err, store.ErrExists) {
		return err
	}
	return nil
}

// killChild is one run of the follower victim process.
type killChild struct {
	cmd  *exec.Cmd
	last atomic.Uint64 // highest seq the child acknowledged durable
	dead atomic.Bool
}

func startKillChild(t *testing.T, dir, addr string) *killChild {
	t.Helper()
	c := &killChild{}
	c.cmd = exec.Command(os.Args[0], "-test.run=TestKillNineFollowerConvergence")
	c.cmd.Env = append(os.Environ(), "BFREPL_CHILD=1", "BFREPL_DIR="+dir, "BFREPL_ADDR="+addr)
	c.cmd.Stderr = os.Stderr
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if n, err := strconv.ParseUint(strings.TrimPrefix(line, "applied "), 10, 64); err == nil && strings.HasPrefix(line, "applied ") {
				c.last.Store(n)
			}
		}
		c.dead.Store(true)
	}()
	t.Cleanup(func() {
		if c.cmd.Process != nil {
			c.cmd.Process.Kill()
			c.cmd.Wait()
		}
	})
	return c
}

// waitAck blocks until the child has acknowledged at least seq.
func (c *killChild) waitAck(t *testing.T, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for c.last.Load() < seq {
		if c.dead.Load() && c.last.Load() < seq {
			t.Fatalf("child died at ack %d, waiting for %d", c.last.Load(), seq)
		}
		if time.Now().After(deadline) {
			t.Fatalf("child stuck at ack %d, waiting for %d", c.last.Load(), seq)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill delivers SIGKILL — no deferred cleanup, no final fsync, exactly
// like a crashed machine — and reaps the process (releasing its flock).
func (c *killChild) kill(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	c.cmd.Wait()
}

// killNineFollowerChild is the victim: it opens the durable follower
// store named by BFREPL_DIR, follows BFREPL_ADDR, and prints "applied N"
// for each position the follower reports (applied and durable), until the
// parent kills it.
func killNineFollowerChild() {
	dir := os.Getenv("BFREPL_DIR")
	addr := os.Getenv("BFREPL_ADDR")
	s, err := store.Open(dir, store.DurabilityOptions{Sync: store.SyncAlways, SnapshotEvery: -1})
	if err != nil {
		fmt.Println("child open error:", err)
		os.Exit(1)
	}
	if err := ensureTestSchema(s); err != nil {
		fmt.Println("child schema error:", err)
		os.Exit(1)
	}
	s.SetReplica(true)
	f := NewFollower(s, addr, FollowerOptions{})
	f.Start()
	last := uint64(0)
	for {
		st := f.Status()
		if st.Degraded {
			fmt.Println("child degraded at", st.LastApplied)
			os.Exit(1)
		}
		if st.LastApplied > last {
			last = st.LastApplied
			fmt.Printf("applied %d\n", last) // os.Stdout is unbuffered
		}
		time.Sleep(time.Millisecond)
	}
}
