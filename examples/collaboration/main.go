// Collaboration: moves a project between two B-Fabric instances, the
// enabling primitive for the "Infrastructure for Collaborative Research"
// generalization named in the paper's acknowledgements. Instance A runs
// the Arabidopsis workflow; the project — entity graph, annotations and
// file payloads — is exported as a self-contained archive and imported
// into instance B, where the analysis report is immediately readable and
// searchable.
//
//	go run ./examples/collaboration
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/importer"
	"repro/internal/model"
	"repro/internal/provider"
	"repro/internal/store"
)

func main() {
	// --- instance A: produce a project worth sharing -----------------------
	a := core.MustNew(core.Options{})
	arrays := []string{"AT-1-control", "AT-2-control", "AT-1-treated", "AT-2-treated"}
	gp, gpStore := provider.NewAffymetrixGeneChip("genechip", arrays)
	a.Storage.Mount(gpStore)
	must(a.Providers.Register(gp))

	var project int64
	must(a.Update(func(tx *store.Tx) error {
		var err error
		project, err = a.DB.CreateProject(tx, "zurich", model.Project{
			Name: "AT light response", Description: "shared with the Basel group",
		})
		if err != nil {
			return err
		}
		if _, err := a.Vocab.AddTerm(tx, "zurich", model.VocabSpecies, "Arabidopsis thaliana", true); err != nil {
			return err
		}
		sid, err := a.DB.CreateSample(tx, "zurich", model.Sample{
			Name: "AT-pool", Project: project, Species: "Arabidopsis thaliana",
		})
		if err != nil {
			return err
		}
		for _, name := range arrays {
			if _, err := a.DB.CreateExtract(tx, "zurich", model.Extract{Name: name, Sample: sid}); err != nil {
				return err
			}
		}
		imp, err := a.Importer.Import(tx, importer.Request{
			Provider: "genechip", Mode: importer.Copy,
			WorkunitName: "arrays", Project: project, Actor: "zurich",
		})
		if err != nil {
			return err
		}
		matches, err := a.Importer.BestMatches(tx, imp.Workunit)
		if err != nil {
			return err
		}
		if err := a.Importer.ApplyMatches(tx, "zurich", matches); err != nil {
			return err
		}
		if err := a.Importer.CompleteImport(tx, "zurich", imp.WorkflowInstance); err != nil {
			return err
		}
		appID, err := a.DB.CreateApplication(tx, "zurich", model.Application{
			Name: "two group analysis", Connector: "rserve", Program: "twogroup.R", Active: true,
		})
		if err != nil {
			return err
		}
		expID, err := a.DB.CreateExperiment(tx, "zurich", model.Experiment{
			Name: "light effect", Project: project, Resources: imp.Resources,
		})
		if err != nil {
			return err
		}
		run, err := a.Executor.RunExperiment(tx, apps.RunRequest{
			Experiment: expID, Application: appID, WorkunitName: "results",
			Params: map[string]string{"reference_group": "control"}, Actor: "zurich",
		})
		if err != nil {
			return err
		}
		if run.Failed {
			return fmt.Errorf("experiment failed: %s", run.Error)
		}
		return nil
	}))
	fmt.Println("instance A: project produced")
	fmt.Printf("instance A stats: %+v\n", a.DB.CollectStats())

	// --- export → archive → import into instance B ---------------------------
	var archive bytes.Buffer
	must(exchange.Export(a, project, &archive))
	fmt.Printf("\narchive size: %d bytes\n", archive.Len())

	b := core.MustNew(core.Options{})
	res, err := exchange.Import(b, archive.Bytes(), "basel")
	must(err)
	fmt.Printf("instance B imported project %d: %d samples, %d extracts, %d workunits, %d resources, %d terms added, %d payloads stored\n",
		res.Project, res.Samples, res.Extracts, res.Workunits, res.Resources,
		res.TermsAdded, res.PayloadsStored)

	// The report is readable and searchable on instance B.
	must(b.View(func(tx *store.Tx) error {
		wus, err := b.DB.WorkunitsOfProject(tx, res.Project, "")
		if err != nil {
			return err
		}
		for _, w := range wus {
			rs, err := b.DB.ResourcesOfWorkunit(tx, w.ID)
			if err != nil {
				return err
			}
			for _, r := range rs {
				if r.Name == "report.txt" && r.URI != "" {
					data, err := b.Storage.Open(r.URI)
					if err != nil {
						return err
					}
					fmt.Printf("\ninstance B reads the travelled report (%d bytes): %.60s...\n",
						len(data), data)
				}
			}
		}
		return nil
	}))
	hits, err := b.Search.Search("basel", "arabidopsis")
	must(err)
	fmt.Printf("instance B full-text search for \"arabidopsis\": %d hit(s)\n", len(hits))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
