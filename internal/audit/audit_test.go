package audit

import (
	"errors"
	"testing"
	"time"

	"repro/internal/entity"
	"repro/internal/events"
	"repro/internal/model"
	"repro/internal/store"
)

type fixture struct {
	log     *Log
	db      *model.DB
	s       *store.Store
	project int64
}

// wire registers the schema and the audit log over s, as a process does
// at start-up.
func wire(t *testing.T, s *store.Store) *fixture {
	t.Helper()
	bus := events.NewBus()
	rg := entity.NewRegistry(s, bus)
	if err := model.RegisterSchema(rg); err != nil {
		t.Fatal(err)
	}
	return &fixture{log: New(s, bus), db: model.NewDB(rg), s: s}
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	fx := wire(t, store.New())
	fx.addProject(t)
	return fx
}

// addProject commits the project samples are created in.
func (fx *fixture) addProject(t *testing.T) {
	t.Helper()
	err := fx.s.Update(func(tx *store.Tx) error {
		var err error
		fx.project, err = fx.db.CreateProject(tx, "setup", model.Project{Name: "p"})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCreateUpdateDeleteLogged(t *testing.T) {
	fx := newFixture(t)
	var sid int64
	_ = fx.s.Update(func(tx *store.Tx) error {
		sid, _ = fx.db.CreateSample(tx, "alice", model.Sample{Name: "s", Project: fx.project})
		return nil
	})
	_ = fx.s.Update(func(tx *store.Tx) error {
		return fx.db.UpdateSample(tx, "alice", sid, map[string]any{"species": "X"})
	})
	_ = fx.s.Update(func(tx *store.Tx) error {
		return fx.db.Registry().Delete(tx, model.KindSample, sid, "bob")
	})
	_ = fx.s.View(func(tx *store.Tx) error {
		es, err := fx.log.ByObject(tx, model.KindSample, sid)
		if err != nil {
			t.Fatal(err)
		}
		if len(es) != 3 {
			t.Fatalf("entries = %+v", es)
		}
		if es[0].Topic != "sample.created" || es[1].Topic != "sample.updated" || es[2].Topic != "sample.deleted" {
			t.Errorf("topics = %v %v %v", es[0].Topic, es[1].Topic, es[2].Topic)
		}
		if es[2].Actor != "bob" {
			t.Errorf("delete actor = %q", es[2].Actor)
		}
		// Updated fields recorded.
		if len(es[1].Fields) != 1 || es[1].Fields[0] != "species" {
			t.Errorf("update fields = %v", es[1].Fields)
		}
		return nil
	})
}

func TestByActor(t *testing.T) {
	fx := newFixture(t)
	_ = fx.s.Update(func(tx *store.Tx) error {
		_, _ = fx.db.CreateSample(tx, "alice", model.Sample{Name: "a", Project: fx.project})
		_, _ = fx.db.CreateSample(tx, "bob", model.Sample{Name: "b", Project: fx.project})
		_, _ = fx.db.CreateSample(tx, "alice", model.Sample{Name: "c", Project: fx.project})
		return nil
	})
	_ = fx.s.View(func(tx *store.Tx) error {
		es, err := fx.log.ByActor(tx, "alice")
		if err != nil {
			t.Fatal(err)
		}
		if len(es) != 2 {
			t.Fatalf("alice entries = %+v", es)
		}
		if es[0].Seq >= es[1].Seq {
			t.Error("entries not in sequence order")
		}
		return nil
	})
}

func TestRecentNewestFirst(t *testing.T) {
	fx := newFixture(t)
	_ = fx.s.Update(func(tx *store.Tx) error {
		for i := 0; i < 5; i++ {
			_, _ = fx.db.CreateSample(tx, "alice", model.Sample{Name: "s", Project: fx.project})
		}
		return nil
	})
	_ = fx.s.View(func(tx *store.Tx) error {
		es, err := fx.log.Recent(tx, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(es) != 3 {
			t.Fatalf("recent = %+v", es)
		}
		if es[0].Seq < es[1].Seq || es[1].Seq < es[2].Seq {
			t.Errorf("not newest first: %v %v %v", es[0].Seq, es[1].Seq, es[2].Seq)
		}
		return nil
	})
}

// createSample commits one sample, and so one audit entry.
func (fx *fixture) createSample(t *testing.T, actor string) {
	t.Helper()
	err := fx.s.Update(func(tx *store.Tx) error {
		_, err := fx.db.CreateSample(tx, actor, model.Sample{Name: "s", Project: fx.project})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkNewestFirst asserts Recent(n) returns n entries with strictly
// falling, hence unique, seqs, the first being newest.
func checkNewestFirst(t *testing.T, fx *fixture, n int, newest string) {
	t.Helper()
	_ = fx.s.View(func(tx *store.Tx) error {
		es, err := fx.log.Recent(tx, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(es) != n || es[0].Actor != newest {
			t.Fatalf("Recent(%d) = %+v, want %d entries, newest by %s", n, es, n, newest)
		}
		for i := 1; i < n; i++ {
			if es[i].Seq >= es[i-1].Seq {
				t.Errorf("Recent(%d) seqs not strictly newest first: %+v", n, es)
			}
		}
		return nil
	})
}

// TestPromotedFollowerSeqs: a follower that replicated five sample
// entries (and the project's) and is then promoted numbers its own next entry after them, so Recent
// stays newest first with unique seqs.
func TestPromotedFollowerSeqs(t *testing.T) {
	primary := store.New()
	sub, err := primary.SubscribeCommits(0)
	if err != nil {
		t.Fatal(err)
	}
	fx := wire(t, primary)
	fx.addProject(t)
	for i := 0; i < 5; i++ {
		fx.createSample(t, "alice")
	}
	sub.Cancel()
	var frames [][]byte
	for fr := range sub.C {
		frames = append(frames, fr.Payload)
	}

	follower := wire(t, store.New())
	follower.s.SetReplica(true)
	if _, err := follower.s.ApplyReplicated(frames...); err != nil {
		t.Fatal(err)
	}
	follower.s.SetReplica(false) // promoted
	follower.project = fx.project
	if n := follower.log.Count(); n != 6 {
		t.Fatalf("follower holds %d entries, want 6", n)
	}
	follower.createSample(t, "eva")
	checkNewestFirst(t, follower, 3, "eva")
}

// TestRollbackThenReopenSeqs: a rolled-back entry consumes no seq, so
// after a reopen the next entry duplicates none.
func TestRollbackThenReopenSeqs(t *testing.T) {
	dir := t.TempDir()
	open := func() *fixture {
		s, err := store.Open(dir, store.DurabilityOptions{Sync: store.SyncOff, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return wire(t, s)
	}
	fx := open()
	fx.addProject(t)
	fx.createSample(t, "alice")
	_ = fx.s.Update(func(tx *store.Tx) error {
		_, _ = fx.db.CreateSample(tx, "alice", model.Sample{Name: "phantom", Project: fx.project})
		return errors.New("rolled back")
	})
	fx.createSample(t, "alice")
	if err := fx.s.Close(); err != nil {
		t.Fatal(err)
	}

	project := fx.project
	fx = open()
	fx.project = project
	fx.createSample(t, "eva")
	checkNewestFirst(t, fx, 3, "eva")
}

func TestRollbackDiscardsAuditEntries(t *testing.T) {
	fx := newFixture(t)
	before := fx.log.Count()
	boom := errors.New("boom")
	err := fx.s.Update(func(tx *store.Tx) error {
		_, _ = fx.db.CreateSample(tx, "alice", model.Sample{Name: "phantom", Project: fx.project})
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if fx.log.Count() != before {
		t.Error("audit entry survived rollback")
	}
}

func TestTimestampsRecorded(t *testing.T) {
	fixed := time.Date(2010, 1, 15, 12, 0, 0, 0, time.UTC)
	old := nowFunc
	nowFunc = func() time.Time { return fixed }
	defer func() { nowFunc = old }()
	fx := newFixture(t)
	var sid int64
	_ = fx.s.Update(func(tx *store.Tx) error {
		sid, _ = fx.db.CreateSample(tx, "alice", model.Sample{Name: "s", Project: fx.project})
		return nil
	})
	_ = fx.s.View(func(tx *store.Tx) error {
		es, _ := fx.log.ByObject(tx, model.KindSample, sid)
		if len(es) != 1 || !es[0].At.Equal(fixed) {
			t.Errorf("entries = %+v", es)
		}
		return nil
	})
}

func TestAuditableFilter(t *testing.T) {
	for topic, want := range map[string]bool{
		"sample.created":      true,
		"sample.updated":      true,
		"sample.deleted":      true,
		"annotation.released": true,
		"annotation.merged":   true,
		"search.executed":     false,
		"heartbeat":           false,
	} {
		if got := auditable(topic); got != want {
			t.Errorf("auditable(%q) = %v", topic, got)
		}
	}
}
