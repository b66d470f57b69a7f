package vocab

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/entity"
	"repro/internal/events"
	"repro/internal/model"
	"repro/internal/store"
)

// TestQuickMergeInvariants: after any random sequence of term additions and
// merges, (1) no two live terms in a vocabulary share a normalized value,
// and (2) every sample's annotation value resolves to a live term.
func TestQuickMergeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rg := entity.NewRegistry(store.New(), events.NewBus())
		if err := model.RegisterSchema(rg); err != nil {
			return false
		}
		db := model.NewDB(rg)
		sv := New(rg, model.AnnotatedFields(rg))
		var project int64
		if err := rg.Store().Update(func(tx *store.Tx) error {
			var err error
			project, err = db.CreateProject(tx, "q", model.Project{Name: "p"})
			return err
		}); err != nil {
			return false
		}

		var termIDs []int64
		values := []string{}
		for op := 0; op < 40; op++ {
			switch rng.Intn(3) {
			case 0, 1: // add a term and maybe a sample carrying it
				value := fmt.Sprintf("term-%02d", rng.Intn(15))
				_ = rg.Store().Update(func(tx *store.Tx) error {
					term, err := sv.AddTerm(tx, "q", model.VocabDiseaseState, value, rng.Intn(2) == 0)
					if err != nil {
						return nil // duplicates are fine, skip
					}
					termIDs = append(termIDs, term.ID)
					values = append(values, term.Value)
					if rng.Intn(2) == 0 {
						_, _ = db.CreateSample(tx, "q", model.Sample{
							Name: fmt.Sprintf("s%d", op), Project: project,
							DiseaseState: term.Value,
						})
					}
					return nil
				})
			case 2: // merge two random live terms
				if len(termIDs) < 2 {
					continue
				}
				a := termIDs[rng.Intn(len(termIDs))]
				b := termIDs[rng.Intn(len(termIDs))]
				_ = rg.Store().Update(func(tx *store.Tx) error {
					_, err := sv.Merge(tx, "q", a, b, "")
					return err // self-merge / missing terms fail; fine
				})
			}
		}

		// Invariant 1: unique normalized values among live terms.
		ok := true
		_ = rg.Store().View(func(tx *store.Tx) error {
			terms, err := sv.Terms(tx, model.VocabDiseaseState, "")
			if err != nil {
				ok = false
				return nil
			}
			seen := map[string]bool{}
			for _, term := range terms {
				key := termKey(term.Vocabulary, term.Value)
				if seen[key] {
					ok = false
					return nil
				}
				seen[key] = true
			}
			// Invariant 2: every sample's disease state resolves.
			rows, err := tx.Query(store.Query{Table: model.KindSample})
			if err != nil {
				return err
			}
			for rows.Next() {
				ds := rows.Record().String("disease_state")
				if ds != "" && !sv.Exists(tx, model.VocabDiseaseState, ds) {
					ok = false
				}
			}
			return rows.Err()
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
