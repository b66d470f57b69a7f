package vocab

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/entity"
	"repro/internal/events"
	"repro/internal/model"
	"repro/internal/store"
)

type fixture struct {
	sv      *Service
	db      *model.DB
	project int64
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	rg := entity.NewRegistry(store.New(), events.NewBus())
	if err := model.RegisterSchema(rg); err != nil {
		t.Fatal(err)
	}
	db := model.NewDB(rg)
	sv := New(rg, model.AnnotatedFields(rg))
	fx := &fixture{sv: sv, db: db}
	err := rg.Store().Update(func(tx *store.Tx) error {
		var err error
		fx.project, err = db.CreateProject(tx, "setup", model.Project{Name: "p"})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func (fx *fixture) update(t *testing.T, fn func(tx *store.Tx) error) {
	t.Helper()
	if err := fx.sv.rg.Store().Update(fn); err != nil {
		t.Fatal(err)
	}
}

func (fx *fixture) view(t *testing.T, fn func(tx *store.Tx) error) {
	t.Helper()
	if err := fx.sv.rg.Store().View(fn); err != nil {
		t.Fatal(err)
	}
}

func TestAddTermPendingLifecycle(t *testing.T) {
	fx := newFixture(t)
	var term Term
	fx.update(t, func(tx *store.Tx) error {
		var err error
		term, err = fx.sv.AddTerm(tx, "alice", model.VocabDiseaseState, "Hopeless", false)
		return err
	})
	if term.State != StatePending || term.CreatedBy != "alice" {
		t.Errorf("term = %+v", term)
	}
	fx.view(t, func(tx *store.Tx) error {
		pend, err := fx.sv.Pending(tx)
		if err != nil {
			return err
		}
		if len(pend) != 1 || pend[0].Value != "Hopeless" {
			t.Errorf("pending = %+v", pend)
		}
		return nil
	})
	fx.update(t, func(tx *store.Tx) error {
		return fx.sv.Release(tx, "eva", term.ID)
	})
	fx.view(t, func(tx *store.Tx) error {
		got, err := fx.sv.Get(tx, term.ID)
		if err != nil {
			return err
		}
		if got.State != StateReleased || got.ReviewedBy != "eva" {
			t.Errorf("released term = %+v", got)
		}
		return nil
	})
}

func TestAddTermReleasedDirectly(t *testing.T) {
	fx := newFixture(t)
	fx.update(t, func(tx *store.Tx) error {
		term, err := fx.sv.AddTerm(tx, "eva", model.VocabSpecies, "Arabidopsis thaliana", true)
		if err != nil {
			return err
		}
		if term.State != StateReleased || term.ReviewedBy != "eva" {
			t.Errorf("term = %+v", term)
		}
		return nil
	})
}

func TestAddTermDuplicateRejected(t *testing.T) {
	fx := newFixture(t)
	fx.update(t, func(tx *store.Tx) error {
		_, err := fx.sv.AddTerm(tx, "alice", model.VocabTissue, "Leaf", false)
		return err
	})
	err := fx.sv.rg.Store().Update(func(tx *store.Tx) error {
		_, err := fx.sv.AddTerm(tx, "bob", model.VocabTissue, "leaf", false) // case-insensitive dup
		return err
	})
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("got %v, want ErrDuplicate", err)
	}
	// Same value in a different vocabulary is fine.
	fx.update(t, func(tx *store.Tx) error {
		_, err := fx.sv.AddTerm(tx, "bob", model.VocabCellType, "leaf", false)
		return err
	})
}

func TestAddTermValidation(t *testing.T) {
	fx := newFixture(t)
	for _, c := range []struct{ vocab, value string }{
		{"", "x"}, {"v", ""}, {"v", "   "},
	} {
		err := fx.sv.rg.Store().Update(func(tx *store.Tx) error {
			_, err := fx.sv.AddTerm(tx, "a", c.vocab, c.value, false)
			return err
		})
		if err == nil {
			t.Errorf("AddTerm(%q,%q) accepted", c.vocab, c.value)
		}
	}
}

func TestReleaseTwiceFails(t *testing.T) {
	fx := newFixture(t)
	var id int64
	fx.update(t, func(tx *store.Tx) error {
		term, err := fx.sv.AddTerm(tx, "alice", model.VocabTissue, "Root", false)
		id = term.ID
		return err
	})
	fx.update(t, func(tx *store.Tx) error { return fx.sv.Release(tx, "eva", id) })
	err := fx.sv.rg.Store().Update(func(tx *store.Tx) error {
		return fx.sv.Release(tx, "eva", id)
	})
	if !errors.Is(err, ErrStateConflict) {
		t.Fatalf("got %v, want ErrStateConflict", err)
	}
}

func TestTermsSortedAndFiltered(t *testing.T) {
	fx := newFixture(t)
	fx.update(t, func(tx *store.Tx) error {
		if _, err := fx.sv.AddTerm(tx, "a", model.VocabTissue, "Zebra", true); err != nil {
			return err
		}
		if _, err := fx.sv.AddTerm(tx, "a", model.VocabTissue, "Alpha", false); err != nil {
			return err
		}
		_, err := fx.sv.AddTerm(tx, "a", model.VocabTissue, "Mid", true)
		return err
	})
	fx.view(t, func(tx *store.Tx) error {
		all, err := fx.sv.Terms(tx, model.VocabTissue, "")
		if err != nil {
			return err
		}
		if len(all) != 3 || all[0].Value != "Alpha" || all[2].Value != "Zebra" {
			t.Errorf("all terms = %+v", all)
		}
		rel, err := fx.sv.Terms(tx, model.VocabTissue, StateReleased)
		if err != nil {
			return err
		}
		if len(rel) != 2 {
			t.Errorf("released terms = %+v", rel)
		}
		return nil
	})
}

func TestSimilarDetectsMisspelling(t *testing.T) {
	fx := newFixture(t)
	fx.update(t, func(tx *store.Tx) error {
		if _, err := fx.sv.AddTerm(tx, "alice", model.VocabDiseaseState, "Hopeless", true); err != nil {
			return err
		}
		if _, err := fx.sv.AddTerm(tx, "eva", model.VocabDiseaseState, "Healthy", true); err != nil {
			return err
		}
		_, err := fx.sv.AddTerm(tx, "bob", model.VocabDiseaseState, "Hopeles", false)
		return err
	})
	fx.view(t, func(tx *store.Tx) error {
		cands, err := fx.sv.Similar(tx, model.VocabDiseaseState, "Hopeles")
		if err != nil {
			return err
		}
		if len(cands) != 1 || cands[0].Term.Value != "Hopeless" {
			t.Fatalf("candidates = %+v", cands)
		}
		if cands[0].Score < DefaultSimilarityThreshold {
			t.Errorf("score = %v", cands[0].Score)
		}
		return nil
	})
}

func TestRecommendationsForPendingTerms(t *testing.T) {
	fx := newFixture(t)
	var pendingID int64
	fx.update(t, func(tx *store.Tx) error {
		if _, err := fx.sv.AddTerm(tx, "alice", model.VocabDiseaseState, "Hopeless", true); err != nil {
			return err
		}
		term, err := fx.sv.AddTerm(tx, "bob", model.VocabDiseaseState, "Hopeles", false)
		pendingID = term.ID
		return err
	})
	fx.view(t, func(tx *store.Tx) error {
		recs, err := fx.sv.Recommendations(tx)
		if err != nil {
			return err
		}
		cands, ok := recs[pendingID]
		if !ok || len(cands) != 1 || cands[0].Term.Value != "Hopeless" {
			t.Errorf("recommendations = %+v", recs)
		}
		return nil
	})
}

func TestMergeReassociatesSamples(t *testing.T) {
	// The paper's scenario: samples annotated with the misspelled
	// "Hopeles" are re-associated to "Hopeless" when the expert merges.
	// Merge reads the ids to rewrite and then updates rows of the same
	// table (and their link records) in the same transaction, so it must
	// drain the query before the first write: the second size runs the
	// loop well past the store's overlay map-build threshold (16 pending
	// writes), where a Rows left open over the table would be walking
	// overlay state the updates are changing.
	for _, n := range []int{3, 50} {
		t.Run(fmt.Sprintf("samples=%d", n), func(t *testing.T) { testMergeReassociates(t, n) })
	}
}

func testMergeReassociates(t *testing.T, n int) {
	fx := newFixture(t)
	var keep, drop Term
	var misspelled []int64
	var untouched int64
	fx.update(t, func(tx *store.Tx) error {
		var err error
		keep, err = fx.sv.AddTerm(tx, "alice", model.VocabDiseaseState, "Hopeless", true)
		if err != nil {
			return err
		}
		drop, err = fx.sv.AddTerm(tx, "bob", model.VocabDiseaseState, "Hopeles", false)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			id, err := fx.db.CreateSample(tx, "bob", model.Sample{
				Name: fmt.Sprintf("s%d", i), Project: fx.project, DiseaseState: "Hopeles",
			})
			if err != nil {
				return err
			}
			misspelled = append(misspelled, id)
		}
		// One sample with the correct spelling must be untouched.
		untouched, err = fx.db.CreateSample(tx, "alice", model.Sample{
			Name: "ok", Project: fx.project, DiseaseState: "Hopeless",
		})
		return err
	})
	updates := map[int64]int{}
	fx.sv.rg.Bus().Subscribe(model.KindSample+".updated", func(ev events.Event) error {
		updates[ev.ID]++
		return nil
	})
	var res MergeResult
	fx.update(t, func(tx *store.Tx) error {
		var err error
		res, err = fx.sv.Merge(tx, "eva", keep.ID, drop.ID, "")
		return err
	})
	if res.Winner.Value != "Hopeless" || res.Winner.State != StateReleased {
		t.Errorf("winner = %+v", res.Winner)
	}
	if res.Reassociated[model.KindSample] != n {
		t.Errorf("reassociated = %v", res.Reassociated)
	}
	if len(updates) != n || updates[untouched] != 0 {
		t.Errorf("%d samples updated (untouched sample: %d times), want %d and 0", len(updates), updates[untouched], n)
	}
	fx.view(t, func(tx *store.Tx) error {
		for _, id := range misspelled {
			if updates[id] != 1 {
				t.Errorf("sample %d re-associated %d times, want exactly once", id, updates[id])
			}
			s, err := fx.db.GetSample(tx, id)
			if err != nil {
				return err
			}
			if s.DiseaseState != "Hopeless" {
				t.Errorf("sample %d disease_state = %q", id, s.DiseaseState)
			}
			// The update re-synced the sample's link records: still one
			// edge, to its project — none lost, none doubled.
			out, err := fx.sv.rg.Outgoing(tx, model.KindSample, id)
			if err != nil {
				return err
			}
			if len(out) != 1 || out[0].ToKind != model.KindProject || out[0].ToID != fx.project {
				t.Errorf("sample %d outgoing links = %+v, want one edge to project %d", id, out, fx.project)
			}
		}
		in, err := fx.sv.rg.Incoming(tx, model.KindProject, fx.project)
		if err != nil {
			return err
		}
		if len(in) != n+1 {
			t.Errorf("project has %d incoming links, want %d", len(in), n+1)
		}
		// The losing term is gone.
		if _, err := fx.sv.Get(tx, drop.ID); !errors.Is(err, store.ErrNotFound) {
			t.Errorf("dropped term still present: %v", err)
		}
		// Vocabulary now has exactly one disease-state term.
		terms, _ := fx.sv.Terms(tx, model.VocabDiseaseState, "")
		if len(terms) != 1 {
			t.Errorf("terms after merge = %+v", terms)
		}
		return nil
	})
}

func TestMergeWithRename(t *testing.T) {
	// The expert picks a brand-new spelling on the merge form (Figure 6):
	// records carrying either old spelling move to the new one.
	fx := newFixture(t)
	var keep, drop Term
	var sKeep, sDrop int64
	fx.update(t, func(tx *store.Tx) error {
		var err error
		keep, err = fx.sv.AddTerm(tx, "a", model.VocabTreatment, "heatshock", true)
		if err != nil {
			return err
		}
		drop, err = fx.sv.AddTerm(tx, "b", model.VocabTreatment, "heat-shok", false)
		if err != nil {
			return err
		}
		sKeep, err = fx.db.CreateSample(tx, "a", model.Sample{
			Name: "k", Project: fx.project, Treatment: "heatshock",
		})
		if err != nil {
			return err
		}
		sDrop, err = fx.db.CreateSample(tx, "b", model.Sample{
			Name: "d", Project: fx.project, Treatment: "heat-shok",
		})
		return err
	})
	var res MergeResult
	fx.update(t, func(tx *store.Tx) error {
		var err error
		res, err = fx.sv.Merge(tx, "eva", keep.ID, drop.ID, "Heat shock")
		return err
	})
	if res.Winner.Value != "Heat shock" {
		t.Errorf("winner = %+v", res.Winner)
	}
	if res.Reassociated[model.KindSample] != 2 {
		t.Errorf("reassociated = %v", res.Reassociated)
	}
	fx.view(t, func(tx *store.Tx) error {
		for _, id := range []int64{sKeep, sDrop} {
			s, _ := fx.db.GetSample(tx, id)
			if s.Treatment != "Heat shock" {
				t.Errorf("sample %d treatment = %q", id, s.Treatment)
			}
		}
		return nil
	})
}

func TestMergeErrors(t *testing.T) {
	fx := newFixture(t)
	var a, b Term
	fx.update(t, func(tx *store.Tx) error {
		var err error
		a, err = fx.sv.AddTerm(tx, "x", model.VocabTissue, "Leaf", true)
		if err != nil {
			return err
		}
		b, err = fx.sv.AddTerm(tx, "x", model.VocabSpecies, "Leafy", true)
		return err
	})
	err := fx.sv.rg.Store().Update(func(tx *store.Tx) error {
		_, err := fx.sv.Merge(tx, "eva", a.ID, a.ID, "")
		return err
	})
	if err == nil {
		t.Error("self-merge accepted")
	}
	err = fx.sv.rg.Store().Update(func(tx *store.Tx) error {
		_, err := fx.sv.Merge(tx, "eva", a.ID, b.ID, "")
		return err
	})
	if !errors.Is(err, ErrCrossVocabulary) {
		t.Errorf("cross-vocab merge: %v", err)
	}
	err = fx.sv.rg.Store().Update(func(tx *store.Tx) error {
		_, err := fx.sv.Merge(tx, "eva", a.ID, 9999, "")
		return err
	})
	if !errors.Is(err, store.ErrNotFound) {
		t.Errorf("missing loser: %v", err)
	}
}

func TestMergeEventPublished(t *testing.T) {
	fx := newFixture(t)
	var merged []events.Event
	fx.sv.rg.Bus().Subscribe("annotation.merged", func(ev events.Event) error {
		merged = append(merged, ev)
		return nil
	})
	var a, b Term
	fx.update(t, func(tx *store.Tx) error {
		var err error
		a, err = fx.sv.AddTerm(tx, "x", model.VocabTissue, "Stem", true)
		if err != nil {
			return err
		}
		b, err = fx.sv.AddTerm(tx, "x", model.VocabTissue, "Stemm", false)
		return err
	})
	fx.update(t, func(tx *store.Tx) error {
		_, err := fx.sv.Merge(tx, "eva", a.ID, b.ID, "")
		return err
	})
	if len(merged) != 1 || merged[0].Payload["dropped"] != "Stemm" {
		t.Errorf("merge events = %+v", merged)
	}
}

func TestExistsAndLookup(t *testing.T) {
	fx := newFixture(t)
	fx.update(t, func(tx *store.Tx) error {
		_, err := fx.sv.AddTerm(tx, "a", model.VocabSpecies, "Mus musculus", true)
		return err
	})
	fx.view(t, func(tx *store.Tx) error {
		if !fx.sv.Exists(tx, model.VocabSpecies, "mus musculus") {
			t.Error("case-insensitive Exists failed")
		}
		if fx.sv.Exists(tx, model.VocabSpecies, "Rattus") {
			t.Error("nonexistent term Exists")
		}
		term, err := fx.sv.Lookup(tx, model.VocabSpecies, "MUS MUSCULUS")
		if err != nil {
			return err
		}
		if term.Value != "Mus musculus" {
			t.Errorf("Lookup = %+v", term)
		}
		return nil
	})
}

func TestSetThreshold(t *testing.T) {
	fx := newFixture(t)
	fx.update(t, func(tx *store.Tx) error {
		_, err := fx.sv.AddTerm(tx, "a", model.VocabTissue, "Leaf", true)
		return err
	})
	fx.sv.SetThreshold(0.01)
	fx.view(t, func(tx *store.Tx) error {
		cands, err := fx.sv.Similar(tx, model.VocabTissue, "Loof")
		if err != nil {
			return err
		}
		if len(cands) != 1 {
			t.Errorf("low threshold candidates = %+v", cands)
		}
		return nil
	})
	fx.sv.SetThreshold(0.999)
	fx.view(t, func(tx *store.Tx) error {
		cands, err := fx.sv.Similar(tx, model.VocabTissue, "Leav")
		if err != nil {
			return err
		}
		if len(cands) != 0 {
			t.Errorf("high threshold candidates = %+v", cands)
		}
		return nil
	})
}

func TestAnnotationCreatedEvent(t *testing.T) {
	fx := newFixture(t)
	var got []events.Event
	fx.sv.rg.Bus().Subscribe("annotation.created", func(ev events.Event) error {
		got = append(got, ev)
		return nil
	})
	fx.update(t, func(tx *store.Tx) error {
		_, err := fx.sv.AddTerm(tx, "alice", model.VocabDiseaseState, "Hopeless", false)
		return err
	})
	if len(got) != 1 || got[0].Payload["value"] != "Hopeless" || got[0].Actor != "alice" {
		t.Errorf("events = %+v", got)
	}
}

func TestCount(t *testing.T) {
	fx := newFixture(t)
	if fx.sv.Count() != 0 {
		t.Error("fresh count != 0")
	}
	fx.update(t, func(tx *store.Tx) error {
		_, err := fx.sv.AddTerm(tx, "a", model.VocabTissue, "Leaf", true)
		return err
	})
	if fx.sv.Count() != 1 {
		t.Error("count != 1")
	}
}
