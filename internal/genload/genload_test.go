package genload

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/store"
)

func TestScaledProfile(t *testing.T) {
	p := FGCZJan2010.Scaled(0.01)
	if p.Users != 15 || p.DataResources != 400 {
		t.Errorf("scaled = %+v", p)
	}
	// Everything stays at least 1.
	tiny := FGCZJan2010.Scaled(0.000001)
	if tiny.Organizations < 1 || tiny.Users < 1 {
		t.Errorf("tiny = %+v", tiny)
	}
}

func TestGenerateSmallProfileCounts(t *testing.T) {
	sys := core.MustNew(core.Options{DisableSearch: true, DisableAudit: true})
	p := FGCZJan2010.Scaled(0.01)
	if err := Generate(sys, p); err != nil {
		t.Fatal(err)
	}
	st := sys.DB.CollectStats()
	if st.Users != p.Users || st.Projects != p.Projects ||
		st.Institutes != p.Institutes || st.Organizations != p.Organizations ||
		st.Samples != p.Samples || st.Extracts != p.Extracts ||
		st.DataResources != p.DataResources || st.Workunits != p.Workunits {
		t.Errorf("stats = %+v, profile = %+v", st, p)
	}
}

func TestGenerateReferentialShape(t *testing.T) {
	sys := core.MustNew(core.Options{DisableSearch: true, DisableAudit: true})
	if err := Generate(sys, FGCZJan2010.Scaled(0.005)); err != nil {
		t.Fatal(err)
	}
	// Every sample points at an existing project; every extract at an
	// existing sample; every resource at an existing workunit. The entity
	// layer enforces this at write time; verify a posteriori anyway.
	err := sys.View(func(tx *store.Tx) error {
		if err := scanAll(tx, model.KindSample, func(r store.Row) bool {
			if !tx.Exists(model.KindProject, r.Int("project")) {
				t.Errorf("sample %d has dangling project", r.ID())
				return false
			}
			return true
		}); err != nil {
			return err
		}
		if err := scanAll(tx, model.KindExtract, func(r store.Row) bool {
			if !tx.Exists(model.KindSample, r.Int("sample")) {
				t.Errorf("extract %d has dangling sample", r.ID())
				return false
			}
			return true
		}); err != nil {
			return err
		}
		assigned := 0
		total := 0
		if err := scanAll(tx, model.KindDataResource, func(r store.Row) bool {
			total++
			if !tx.Exists(model.KindWorkunit, r.Int("workunit")) {
				t.Errorf("resource %d has dangling workunit", r.ID())
				return false
			}
			if r.Int("extract") != 0 {
				assigned++
			}
			return true
		}); err != nil {
			return err
		}
		// Roughly 60% extract assignment.
		frac := float64(assigned) / float64(total)
		if frac < 0.4 || frac > 0.8 {
			t.Errorf("extract assignment fraction = %v", frac)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := FGCZJan2010.Scaled(0.003)
	run := func() model.Stats {
		sys := core.MustNew(core.Options{DisableSearch: true, DisableAudit: true})
		if err := Generate(sys, p); err != nil {
			t.Fatal(err)
		}
		return sys.DB.CollectStats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestVocabulariesSeeded(t *testing.T) {
	sys := core.MustNew(core.Options{DisableSearch: true, DisableAudit: true})
	if err := Generate(sys, FGCZJan2010.Scaled(0.002)); err != nil {
		t.Fatal(err)
	}
	_ = sys.View(func(tx *store.Tx) error {
		terms, err := sys.Vocab.Terms(tx, model.VocabSpecies, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(terms) != len(seedTerms[model.VocabSpecies]) {
			t.Errorf("species terms = %d", len(terms))
		}
		// All samples carry valid species annotations.
		return scanAll(tx, model.KindSample, func(r store.Row) bool {
			if !sys.Vocab.Exists(tx, model.VocabSpecies, r.String("species")) {
				t.Errorf("sample %d has unknown species %q", r.ID(), r.String("species"))
				return false
			}
			return true
		})
	})
}

func TestStatsTableLayout(t *testing.T) {
	out := StatsTable(model.Stats{
		Users: 1555, Projects: 750, Institutes: 224, Organizations: 59,
		Samples: 3151, Extracts: 3642, DataResources: 40005, Workunits: 23979,
	})
	for _, want := range []string{
		"Users          1555   Samples         3151",
		"Projects        750   Extracts        3642",
		"Institutes      224   Data Resources 40005",
		"Organizations    59   Workunits      23979",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// scanAll visits the table's rows in id order until fn returns false.
func scanAll(tx *store.Tx, table string, fn func(store.Row) bool) error {
	rows, err := tx.Query(store.Query{Table: table})
	if err != nil {
		return err
	}
	for rows.Next() && fn(rows.Record()) {
	}
	return rows.Err()
}
