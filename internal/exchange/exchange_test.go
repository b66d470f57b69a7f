package exchange

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/importer"
	"repro/internal/model"
	"repro/internal/provider"
	"repro/internal/store"
)

// buildSource creates an instance with a fully populated project: samples
// with annotations, extracts, an instrument import with assignments, a
// completed experiment run.
func buildSource(t *testing.T) (*core.System, int64) {
	t.Helper()
	sys := core.MustNew(core.Options{})
	arrays := []string{"x-1-control", "x-1-treated"}
	gp, gpStore := provider.NewAffymetrixGeneChip("genechip", arrays)
	sys.Storage.Mount(gpStore)
	if err := sys.Providers.Register(gp); err != nil {
		t.Fatal(err)
	}
	var project int64
	err := sys.Update(func(tx *store.Tx) error {
		var err error
		project, err = sys.DB.CreateProject(tx, "src", model.Project{
			Name: "exported-project", Description: "travelling project",
		})
		if err != nil {
			return err
		}
		if _, err := sys.Vocab.AddTerm(tx, "src", model.VocabSpecies, "Arabidopsis thaliana", true); err != nil {
			return err
		}
		if _, err := sys.Vocab.AddTerm(tx, "src", model.VocabTreatment, "Light", true); err != nil {
			return err
		}
		sid, err := sys.DB.CreateSample(tx, "src", model.Sample{
			Name: "s1", Project: project,
			Species: "Arabidopsis thaliana", Treatment: "Light",
		})
		if err != nil {
			return err
		}
		for _, a := range arrays {
			if _, err := sys.DB.CreateExtract(tx, "src", model.Extract{Name: a, Sample: sid}); err != nil {
				return err
			}
		}
		imp, err := sys.Importer.Import(tx, importer.Request{
			Provider: "genechip", Mode: importer.Copy,
			WorkunitName: "arrays", Project: project, Actor: "src",
		})
		if err != nil {
			return err
		}
		matches, err := sys.Importer.BestMatches(tx, imp.Workunit)
		if err != nil {
			return err
		}
		if err := sys.Importer.ApplyMatches(tx, "src", matches); err != nil {
			return err
		}
		if err := sys.Importer.CompleteImport(tx, "src", imp.WorkflowInstance); err != nil {
			return err
		}
		appID, err := sys.DB.CreateApplication(tx, "src", model.Application{
			Name: "two group analysis", Connector: "rserve", Program: "twogroup.R", Active: true,
		})
		if err != nil {
			return err
		}
		expID, err := sys.DB.CreateExperiment(tx, "src", model.Experiment{
			Name: "exp", Project: project, Resources: imp.Resources,
			Samples: []int64{sid},
		})
		if err != nil {
			return err
		}
		run, err := sys.Executor.RunExperiment(tx, apps.RunRequest{
			Experiment: expID, Application: appID, WorkunitName: "results",
			Params: map[string]string{"reference_group": "control"}, Actor: "src",
		})
		if err != nil {
			return err
		}
		if run.Failed {
			return errors.New(run.Error)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, project
}

func TestExportImportRoundTrip(t *testing.T) {
	src, project := buildSource(t)
	var buf bytes.Buffer
	if err := Export(src, project, &buf); err != nil {
		t.Fatal(err)
	}

	dst := core.MustNew(core.Options{})
	res, err := Import(dst, buf.Bytes(), "importer")
	if err != nil {
		t.Fatal(err)
	}
	// 1 sample, 2 extracts, 2 workunits (import + results), resources:
	// 2 imported + (2 input-markers + 3 outputs) = 7, 1 experiment.
	if res.Samples != 1 || res.Extracts != 2 || res.Workunits != 2 ||
		res.Resources != 7 || res.Experiments != 1 {
		t.Fatalf("import result = %+v", res)
	}
	if res.TermsAdded != 2 {
		t.Errorf("terms added = %d, want 2", res.TermsAdded)
	}
	// Payloads for copied resources + outputs travelled (the two imported
	// CELs + input markers resolve to the same bytes + 3 outputs).
	if res.PayloadsStored < 5 {
		t.Errorf("payloads stored = %d", res.PayloadsStored)
	}

	// Destination graph is intact and annotations valid.
	err = dst.View(func(tx *store.Tx) error {
		samples, err := dst.DB.SamplesOfProject(tx, res.Project)
		if err != nil {
			return err
		}
		if len(samples) != 1 || samples[0].Species != "Arabidopsis thaliana" {
			t.Errorf("samples = %+v", samples)
		}
		if !dst.Vocab.Exists(tx, model.VocabSpecies, "Arabidopsis thaliana") {
			t.Error("species term missing on destination")
		}
		extracts, err := dst.DB.ExtractsOfProject(tx, res.Project)
		if err != nil {
			return err
		}
		if len(extracts) != 2 {
			t.Errorf("extracts = %+v", extracts)
		}
		// Every resource's workunit/extract references resolve.
		wus, err := dst.DB.WorkunitsOfProject(tx, res.Project, "")
		if err != nil {
			return err
		}
		reportSeen := false
		for _, w := range wus {
			rs, err := dst.DB.ResourcesOfWorkunit(tx, w.ID)
			if err != nil {
				return err
			}
			for _, r := range rs {
				if r.Extract != 0 && !tx.Exists(model.KindExtract, r.Extract) {
					t.Errorf("resource %d has dangling extract", r.ID)
				}
				if r.Name == "report.txt" && r.URI != "" {
					data, err := dst.Storage.Open(r.URI)
					if err != nil {
						return err
					}
					if !strings.Contains(string(data), "Two group analysis report") {
						t.Error("report payload corrupted")
					}
					reportSeen = true
				}
			}
		}
		if !reportSeen {
			t.Error("report.txt payload did not travel")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestImportIntoInstanceWithExistingTerms(t *testing.T) {
	src, project := buildSource(t)
	var buf bytes.Buffer
	if err := Export(src, project, &buf); err != nil {
		t.Fatal(err)
	}
	dst := core.MustNew(core.Options{})
	_ = dst.Update(func(tx *store.Tx) error {
		_, err := dst.Vocab.AddTerm(tx, "local", model.VocabSpecies, "Arabidopsis thaliana", true)
		return err
	})
	res, err := Import(dst, buf.Bytes(), "importer")
	if err != nil {
		t.Fatal(err)
	}
	if res.TermsAdded != 1 { // only "Light" was missing
		t.Errorf("terms added = %d", res.TermsAdded)
	}
}

func TestImportTwiceCreatesTwoProjects(t *testing.T) {
	src, project := buildSource(t)
	var buf bytes.Buffer
	if err := Export(src, project, &buf); err != nil {
		t.Fatal(err)
	}
	dst := core.MustNew(core.Options{})
	a, err := Import(dst, buf.Bytes(), "importer")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Import(dst, buf.Bytes(), "importer")
	if err != nil {
		t.Fatal(err)
	}
	if a.Project == b.Project {
		t.Error("imports collided")
	}
	if dst.Store.Count(model.KindProject) != 2 {
		t.Errorf("projects = %d", dst.Store.Count(model.KindProject))
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	dst := core.MustNew(core.Options{})
	if _, err := Import(dst, []byte("not a zip"), "x"); !errors.Is(err, ErrBadArchive) {
		t.Errorf("garbage: %v", err)
	}
}

func TestImportRejectsArchiveWithoutManifest(t *testing.T) {
	var buf bytes.Buffer
	data, err := apps.ZipOutputs([]apps.OutputFile{{Name: "random.txt", Data: []byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(data)
	dst := core.MustNew(core.Options{})
	if _, err := Import(dst, buf.Bytes(), "x"); !errors.Is(err, ErrBadArchive) {
		t.Errorf("missing manifest: %v", err)
	}
}

// craftArchive builds an exchange archive directly from a manifest.
func craftArchive(t *testing.T, m Manifest) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	w, err := zw.Create(manifestName)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(w).Encode(m); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestImportRollsBackAtomically(t *testing.T) {
	// An archive whose extract references a sample outside the export must
	// fail without leaving partial state (the project and samples created
	// before the bad extract are rolled back).
	bad := craftArchive(t, Manifest{
		Version: FormatVersion,
		Project: model.Project{Name: "poisoned"},
		Samples: []model.Sample{{ID: 1, Name: "ok"}},
		Extracts: []model.Extract{
			{ID: 5, Name: "dangling", Sample: 999},
		},
	})
	dst := core.MustNew(core.Options{})
	if _, err := Import(dst, bad, "x"); err == nil {
		t.Fatal("corrupted archive accepted")
	}
	if dst.Store.Count(model.KindProject) != 0 || dst.Store.Count(model.KindSample) != 0 {
		t.Error("partial import leaked state")
	}
}

func TestImportRejectsWrongVersion(t *testing.T) {
	bad := craftArchive(t, Manifest{Version: 99, Project: model.Project{Name: "future"}})
	dst := core.MustNew(core.Options{})
	if _, err := Import(dst, bad, "x"); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestExportUnknownProject(t *testing.T) {
	sys := core.MustNew(core.Options{})
	var buf bytes.Buffer
	if err := Export(sys, 42, &buf); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("unknown project: %v", err)
	}
}
