package repl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/store"
)

// The follower fault campaign is the replication analogue of the store's
// crash-point campaign: the same deterministic replay — frames applied
// through ApplyReplicated into a durable follower, with a mid-stream
// snapshot resync — is re-run once per mutating filesystem operation,
// with that operation (and everything after: the disk stays dead)
// failing. The contract under ANY such fault:
//
//   - the follower never serves phantom rows: its visible state is
//     always an exact committed prefix of the primary's history;
//   - it refuses loudly: once the local durable path fails, further
//     replication is rejected with ErrDegraded (or the directory refuses
//     to reopen with a damage report) instead of silently absorbing
//     frames it cannot log;
//   - it converges after resync: reopening on a healthy disk (or, if the
//     directory was damaged mid-reset, resyncing into a fresh one) and
//     replaying the stream ends byte-identical to the primary.
//
// The default run covers a deterministic spread of fault points so `go
// test ./...` always exercises the contract; BFABRIC_FAULTS=full (make
// test-repl) sweeps every point with seeded mode assignment
// (BFABRIC_FAULT_SEED replays a sweep).

const replCampaignN = 18

// campaignSchema registers the replay schema, tolerating prior
// registration (reopened directories already carry it via the snapshot).
func campaignSchema(t *testing.T, s *store.Store) {
	t.Helper()
	if err := s.CreateTable("sample"); err != nil && !errors.Is(err, store.ErrExists) {
		t.Fatal(err)
	}
	if err := s.CreateIndex("sample", "n", true); err != nil && !errors.Is(err, store.ErrExists) {
		t.Fatal(err)
	}
}

// captureStream runs the primary workload once and returns the primary
// itself, its committed frames, a snapshot pinned mid-stream (the resync
// the replay injects) and a snapshot of the final state.
func captureStream(t *testing.T) (primary *store.Store, frames []store.ReplFrame, midSnap, fullSnap []byte) {
	t.Helper()
	primary = store.New()
	campaignSchema(t, primary)
	sub, err := primary.SubscribeCommits(replCampaignN + 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	pin := func() []byte {
		var buf bytes.Buffer
		_, write := primary.PinnedSnapshot()
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for i := int64(1); i <= replCampaignN; i++ {
		if err := primary.Update(func(tx *store.Tx) error {
			_, err := tx.Insert("sample", store.Record{"n": i})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if i == replCampaignN/2 {
			midSnap = pin()
		}
	}
	fullSnap = pin()
	for len(frames) < replCampaignN {
		frames = append(frames, <-sub.C)
	}
	return primary, frames, midSnap, fullSnap
}

// replayWorkload drives the follower replay path: first half of the
// stream frame-by-frame, a snapshot resync (the divergence-recovery
// path: wal reset + snapshot write), then the rest of the stream. It
// returns the first error — every fs op behind it is a campaign fault
// point.
func replayWorkload(s *store.Store, frames []store.ReplFrame, midSnap []byte) error {
	half := len(frames) / 2
	for _, fr := range frames[:half] {
		if err := applyDurable(s, fr.Payload); err != nil {
			return err
		}
	}
	if _, err := s.ResetFromSnapshot(bytes.NewReader(midSnap)); err != nil {
		return err
	}
	for _, fr := range frames[half:] {
		if err := applyDurable(s, fr.Payload); err != nil {
			return err
		}
	}
	return nil
}

// applyDurable is the follower's batch of one — apply a frame, then the
// barrier it runs before reporting the seq — so every fsync of the live
// replay path stays a campaign fault point.
func applyDurable(s *store.Store, payload []byte) error {
	seq, err := s.ApplyReplicated(payload)
	if err != nil {
		return err
	}
	return s.WaitDurable(seq)
}

func openFollowerDir(dir string, fsys store.FS) (*store.Store, error) {
	return store.Open(dir, store.DurabilityOptions{
		Sync:          store.SyncAlways,
		SnapshotEvery: -1,
		FS:            fsys,
	})
}

// assertNoPhantoms checks the follower's visible state is an exact
// committed prefix of the primary's history: contiguous rows 1..k for
// some k <= N, each carrying its own index, nothing beyond.
func assertNoPhantoms(t *testing.T, s *store.Store, label string) {
	t.Helper()
	k := int64(s.Count("sample"))
	if k > replCampaignN {
		t.Fatalf("%s: phantom rows: follower shows %d, primary committed %d", label, k, replCampaignN)
	}
	for id := int64(1); id <= k; id++ {
		r, err := s.Get("sample", id)
		if err != nil {
			t.Fatalf("%s: gap in follower prefix at id %d (count %d): %v", label, id, k, err)
		}
		if r.Int("n") != id {
			t.Fatalf("%s: follower row %d carries n=%d — not the primary's row", label, id, r.Int("n"))
		}
	}
	// Beyond the prefix: nothing. A follower that never got far enough to
	// create the table answers ErrNoTable — an empty prefix, not a phantom.
	if _, err := s.Get("sample", k+1); !errors.Is(err, store.ErrNotFound) && !errors.Is(err, store.ErrNoTable) {
		t.Fatalf("%s: phantom row beyond the prefix (id %d): %v", label, k+1, err)
	}
}

func TestFollowerFaultCampaign(t *testing.T) {
	full := os.Getenv("BFABRIC_FAULTS") == "full"
	primary, frames, midSnap, fullSnap := captureStream(t)

	// Pass 1: a clean run on a counting FaultFS measures the op stream.
	probe := store.NewFaultFS(nil)
	s, err := openFollowerDir(t.TempDir(), probe)
	if err != nil {
		t.Fatalf("baseline open: %v", err)
	}
	campaignSchema(t, s)
	s.SetReplica(true)
	if err := replayWorkload(s, frames, midSnap); err != nil {
		t.Fatalf("baseline replay failed with no faults armed: %v", err)
	}
	assertConverged(t, primary, s)
	if err := s.Close(); err != nil {
		t.Fatalf("baseline close: %v", err)
	}
	total := probe.Ops()
	if total < replCampaignN {
		t.Fatalf("implausible op count %d for %d replicated commits — is the FS threaded under the follower's WAL?", total, replCampaignN)
	}

	modes := []store.FaultMode{store.FaultErr, store.FaultTorn, store.FaultENOSPC}
	var points []int
	if full {
		for p := 0; p < total; p++ {
			points = append(points, p)
		}
	} else {
		for p := 0; p < total; p += 5 {
			points = append(points, p)
		}
		points = append(points, total-1)
	}
	seed := int64(1)
	if full {
		if env := os.Getenv("BFABRIC_FAULT_SEED"); env != "" {
			fmt.Sscanf(env, "%d", &seed)
		}
		t.Logf("full follower campaign: %d fault points, seed %d (replay with BFABRIC_FAULT_SEED)", total, seed)
	}
	rng := rand.New(rand.NewSource(seed))

	for i, p := range points {
		mode := modes[i%len(modes)]
		if full {
			mode = modes[rng.Intn(len(modes))]
		}
		label := fmt.Sprintf("fault@%d/%d mode=%d", p, total, mode)
		dir := t.TempDir()
		ffs := store.NewFaultFS(nil)
		ffs.FailAt(p, mode)

		s, err := openFollowerDir(dir, ffs)
		var replayErr error
		if err == nil {
			campaignSchema(t, s)
			s.SetReplica(true)
			replayErr = replayWorkload(s, frames, midSnap)
			if replayErr == nil {
				// Fault absorbed without losing the stream (e.g. a failed
				// background op): the follower must simply be converged.
				assertConverged(t, primary, s)
			} else {
				// The live follower may keep serving reads, but only the
				// committed prefix — and it must refuse further frames
				// loudly once its durable path is gone.
				assertNoPhantoms(t, s, label+" (live)")
				// Feed the next in-order frame (frames[i] carries seq i+1):
				// the refusal must be the degradation, not a gap complaint.
				if h := s.Health(); !h.OK && s.CommitSeq() < uint64(len(frames)) {
					next := frames[s.CommitSeq()]
					if _, aerr := s.ApplyReplicated(next.Payload); !errors.Is(aerr, store.ErrDegraded) {
						t.Fatalf("%s: degraded follower accepted a frame (err=%v)", label, aerr)
					}
				}
			}
			s.Close() // the disk is (possibly) dead; errors expected
		}
		if _, fired := ffs.Failed(); !fired {
			t.Fatalf("%s: fault never fired (ops=%d)", label, ffs.Ops())
		}

		// Recovery: reopen on a healthy disk and replay to convergence. A
		// directory torn mid-reset may legitimately refuse to reopen
		// (damaged history is reported, not guessed at) — the operator
		// answer is a fresh-directory resync, which must always converge.
		rs, err := openFollowerDir(dir, nil)
		if err != nil {
			rs, err = openFollowerDir(t.TempDir(), nil)
			if err != nil {
				t.Fatalf("%s: fresh-dir open: %v", label, err)
			}
			campaignSchema(t, rs)
			rs.SetReplica(true)
			if _, err := rs.ResetFromSnapshot(bytes.NewReader(fullSnap)); err != nil {
				t.Fatalf("%s: fresh-dir resync: %v", label, err)
			}
		} else {
			assertNoPhantoms(t, rs, label+" (recovered)")
			campaignSchema(t, rs)
			rs.SetReplica(true)
			for _, fr := range frames {
				if _, err := rs.ApplyReplicated(fr.Payload); err != nil {
					t.Fatalf("%s: replay after recovery: %v", label, err)
				}
			}
		}
		assertConverged(t, primary, rs)
		if err := rs.Close(); err != nil {
			t.Fatalf("%s: close after convergence: %v", label, err)
		}
	}
}
