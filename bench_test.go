// Benchmarks reproducing the paper's artifacts, one per table/figure of
// the experiment index in DESIGN.md. Absolute numbers are not comparable
// to the 2010 production deployment (different substrate); the benchmarks
// pin down the cost of every demonstrated behaviour and the scaling shape
// of the annotation, import and search machinery.
package repro_test

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/genload"
	"repro/internal/importer"
	"repro/internal/model"
	"repro/internal/provider"
	"repro/internal/store"
	"repro/internal/vocab"
)

// benchSystem builds a lean system (no search/audit unless asked) with one
// project and one scientist.
func benchSystem(b *testing.B, opts core.Options) (*core.System, int64) {
	b.Helper()
	sys := core.MustNew(opts)
	var project int64
	err := sys.Update(func(tx *store.Tx) error {
		alice, err := sys.DB.CreateUser(tx, "bench", model.User{Login: "alice", Active: true})
		if err != nil {
			return err
		}
		project, err = sys.DB.CreateProject(tx, "bench", model.Project{
			Name: "bench", Members: []int64{alice},
		})
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys, project
}

// --- T1: deployment statistics table -----------------------------------------

func BenchmarkT1_DeploymentLoad(b *testing.B) {
	for _, scale := range []float64{0.01, 0.1, 1.0} {
		p := genload.FGCZJan2010.Scaled(scale)
		entities := p.Organizations + p.Institutes + p.Users + p.Projects +
			p.Samples + p.Extracts + p.Workunits + p.DataResources
		b.Run(fmt.Sprintf("scale=%.2f", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := core.MustNew(core.Options{DisableSearch: true, DisableAudit: true})
				if err := genload.Generate(sys, p); err != nil {
					b.Fatal(err)
				}
				st := sys.DB.CollectStats()
				if st.DataResources != p.DataResources {
					b.Fatalf("stats mismatch: %+v", st)
				}
			}
			b.ReportMetric(float64(entities*b.N)/b.Elapsed().Seconds(), "entities/s")
		})
	}
}

// --- F2/F3: sample and extract registration ------------------------------------

func BenchmarkF2_RegisterSample(b *testing.B) {
	sys, project := benchSystem(b, core.Options{DisableSearch: true, DisableAudit: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := sys.Update(func(tx *store.Tx) error {
			_, err := sys.DB.CreateSample(tx, "alice", model.Sample{
				Name: fmt.Sprintf("s%d", i), Project: project,
			})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF3_RegisterExtractBatch(b *testing.B) {
	for _, batch := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			sys, project := benchSystem(b, core.Options{DisableSearch: true, DisableAudit: true})
			var sample int64
			_ = sys.Update(func(tx *store.Tx) error {
				var err error
				sample, err = sys.DB.CreateSample(tx, "alice", model.Sample{Name: "s", Project: project})
				return err
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := sys.Update(func(tx *store.Tx) error {
					_, err := sys.DB.BatchCreateExtracts(tx, "alice", model.Extract{
						Name: "tpl", Sample: sample,
					}, fmt.Sprintf("b%d", i), batch)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "extracts/s")
		})
	}
}

// --- F4: annotation release ------------------------------------------------------

func BenchmarkF4_ReleaseAnnotation(b *testing.B) {
	sys, _ := benchSystem(b, core.Options{DisableSearch: true, DisableAudit: true})
	// One setup transaction regardless of b.N: unique checks probe the
	// overlay's own index maps, so transaction cost is linear in its
	// write-set size.
	terms := make([]vocab.Term, b.N)
	err := sys.Update(func(tx *store.Tx) error {
		for i := 0; i < b.N; i++ {
			t, err := sys.Vocab.AddTerm(tx, "alice", model.VocabTissue, fmt.Sprintf("tissue-%d", i), false)
			if err != nil {
				return err
			}
			terms[i] = t
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := sys.Update(func(tx *store.Tx) error {
			return sys.Vocab.Release(tx, "eva", terms[i].ID)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- F5: similarity scan ------------------------------------------------------------

func BenchmarkF5_SimilarityScan(b *testing.B) {
	for _, size := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("terms=%d", size), func(b *testing.B) {
			sys, _ := benchSystem(b, core.Options{DisableSearch: true, DisableAudit: true})
			err := sys.Update(func(tx *store.Tx) error {
				for i := 0; i < size; i++ {
					if _, err := sys.Vocab.AddTerm(tx, "g", model.VocabDiseaseState,
						fmt.Sprintf("disease state %06d", i), true); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := sys.View(func(tx *store.Tx) error {
					_, err := sys.Vocab.Similar(tx, model.VocabDiseaseState, "disease state 00004Z")
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size*b.N)/b.Elapsed().Seconds(), "comparisons/s")
		})
	}
}

// --- F7: merge with re-association ---------------------------------------------------

func BenchmarkF7_MergeReassociation(b *testing.B) {
	for _, refs := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("referrers=%d", refs), func(b *testing.B) {
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				sys, project := benchSystem(b, core.Options{DisableSearch: true, DisableAudit: true})
				var keep, drop vocab.Term
				err := sys.Update(func(tx *store.Tx) error {
					var err error
					keep, err = sys.Vocab.AddTerm(tx, "a", model.VocabDiseaseState, "Hopeless", true)
					if err != nil {
						return err
					}
					drop, err = sys.Vocab.AddTerm(tx, "b", model.VocabDiseaseState, "Hopeles", false)
					if err != nil {
						return err
					}
					for j := 0; j < refs; j++ {
						if _, err := sys.DB.CreateSample(tx, "b", model.Sample{
							Name: fmt.Sprintf("s%d", j), Project: project, DiseaseState: "Hopeles",
						}); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				err = sys.Update(func(tx *store.Tx) error {
					res, err := sys.Vocab.Merge(tx, "eva", keep.ID, drop.ID, "")
					if err != nil {
						return err
					}
					if res.Reassociated[model.KindSample] != refs {
						return fmt.Errorf("reassociated %v", res.Reassociated)
					}
					return nil
				})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- F8: task list ---------------------------------------------------------------------

func BenchmarkF8_TaskList(b *testing.B) {
	sys, _ := benchSystem(b, core.Options{DisableSearch: true, DisableAudit: true})
	// 1000 open tasks for the expert role.
	err := sys.Update(func(tx *store.Tx) error {
		for i := 0; i < 1000; i++ {
			if _, err := sys.Vocab.AddTerm(tx, "alice", model.VocabTissue,
				fmt.Sprintf("t%04d", i), false); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := sys.View(func(tx *store.Tx) error {
			ts, err := sys.Tasks.ListOpen(tx, "eva", "expert")
			if err != nil {
				return err
			}
			if len(ts) != 1000 {
				return fmt.Errorf("tasks = %d", len(ts))
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- F9/F10: import -----------------------------------------------------------------------

func benchImportSystem(b *testing.B, files int) (*core.System, int64) {
	b.Helper()
	sys, project := benchSystem(b, core.Options{DisableSearch: true, DisableAudit: true})
	samples := make([]string, files)
	for i := range samples {
		samples[i] = fmt.Sprintf("arr-%04d", i)
	}
	gp, gpStore := provider.NewAffymetrixGeneChip("genechip", samples)
	sys.Storage.Mount(gpStore)
	if err := sys.Providers.Register(gp); err != nil {
		b.Fatal(err)
	}
	return sys, project
}

func BenchmarkF9_ImportWorkunit(b *testing.B) {
	for _, files := range []int{10, 100} {
		for _, mode := range []importer.Mode{importer.Copy, importer.Link} {
			b.Run(fmt.Sprintf("files=%d/mode=%s", files, mode), func(b *testing.B) {
				sys, project := benchImportSystem(b, files)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					err := sys.Update(func(tx *store.Tx) error {
						res, err := sys.Importer.Import(tx, importer.Request{
							Provider: "genechip", Mode: mode,
							WorkunitName: fmt.Sprintf("wu-%d", i),
							Project:      project, Actor: "alice",
						})
						if err != nil {
							return err
						}
						if len(res.Resources) != files {
							return fmt.Errorf("resources = %d", len(res.Resources))
						}
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(files*b.N)/b.Elapsed().Seconds(), "files/s")
			})
		}
	}
}

func BenchmarkF10_ImportWorkflow(b *testing.B) {
	// Measures the workflow round trip: import → assign → save → ready.
	sys, project := benchImportSystem(b, 4)
	var extracts []int64
	err := sys.Update(func(tx *store.Tx) error {
		sid, err := sys.DB.CreateSample(tx, "alice", model.Sample{Name: "s", Project: project})
		if err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			eid, err := sys.DB.CreateExtract(tx, "alice", model.Extract{
				Name: fmt.Sprintf("arr-%04d", i), Sample: sid,
			})
			if err != nil {
				return err
			}
			extracts = append(extracts, eid)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := sys.Update(func(tx *store.Tx) error {
			res, err := sys.Importer.Import(tx, importer.Request{
				Provider: "genechip", Mode: importer.Link,
				WorkunitName: fmt.Sprintf("flow-%d", i),
				Project:      project, Actor: "alice",
			})
			if err != nil {
				return err
			}
			matches, err := sys.Importer.BestMatches(tx, res.Workunit)
			if err != nil {
				return err
			}
			if err := sys.Importer.ApplyMatches(tx, "alice", matches); err != nil {
				return err
			}
			return sys.Importer.CompleteImport(tx, "alice", res.WorkflowInstance)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- F11: best-match computation ---------------------------------------------------------

func BenchmarkF11_BestMatch(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sys, project := benchImportSystem(b, n)
			var wu int64
			err := sys.Update(func(tx *store.Tx) error {
				sid, err := sys.DB.CreateSample(tx, "alice", model.Sample{Name: "s", Project: project})
				if err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if _, err := sys.DB.CreateExtract(tx, "alice", model.Extract{
						Name: fmt.Sprintf("arr_%04d", i), Sample: sid,
					}); err != nil {
						return err
					}
				}
				res, err := sys.Importer.Import(tx, importer.Request{
					Provider: "genechip", Mode: importer.Link,
					WorkunitName: "wu", Project: project, Actor: "alice",
				})
				wu = res.Workunit
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := sys.View(func(tx *store.Tx) error {
					matches, err := sys.Importer.BestMatches(tx, wu)
					if err != nil {
						return err
					}
					if len(matches) != n {
						return fmt.Errorf("matches = %d", len(matches))
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n*n*b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// --- F12/F13: registration ------------------------------------------------------------------

func BenchmarkF12_RegisterApplication(b *testing.B) {
	sys, _ := benchSystem(b, core.Options{DisableSearch: true, DisableAudit: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := sys.Update(func(tx *store.Tx) error {
			_, err := sys.DB.CreateApplication(tx, "admin", model.Application{
				Name: fmt.Sprintf("app-%d", i), Connector: "rserve", Program: "x.R",
				InputSpec: []string{"resources"}, Active: true,
			})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF13_ExperimentDefinition(b *testing.B) {
	sys, project := benchImportSystem(b, 8)
	var resources []int64
	err := sys.Update(func(tx *store.Tx) error {
		res, err := sys.Importer.Import(tx, importer.Request{
			Provider: "genechip", Mode: importer.Link,
			WorkunitName: "wu", Project: project, Actor: "alice",
		})
		resources = res.Resources
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := sys.Update(func(tx *store.Tx) error {
			_, err := sys.DB.CreateExperiment(tx, "alice", model.Experiment{
				Name: fmt.Sprintf("exp-%d", i), Project: project,
				Resources:  resources,
				Attributes: map[string]string{"species": "A. thaliana", "treatment": "light"},
			})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- F14/F15/F16: experiment execution ---------------------------------------------------------

// benchExperiment prepares an importable 2x2 design with an experiment and
// registered application.
func benchExperiment(b *testing.B) (*core.System, int64, int64) {
	b.Helper()
	sys, project := benchSystem(b, core.Options{DisableSearch: true, DisableAudit: true})
	samples := []string{"a-1-control", "a-2-control", "a-1-treated", "a-2-treated"}
	gp, gpStore := provider.NewAffymetrixGeneChip("genechip", samples)
	sys.Storage.Mount(gpStore)
	if err := sys.Providers.Register(gp); err != nil {
		b.Fatal(err)
	}
	var expID, appID int64
	err := sys.Update(func(tx *store.Tx) error {
		res, err := sys.Importer.Import(tx, importer.Request{
			Provider: "genechip", Mode: importer.Copy,
			WorkunitName: "arrays", Project: project, Actor: "alice",
		})
		if err != nil {
			return err
		}
		appID, err = sys.DB.CreateApplication(tx, "admin", model.Application{
			Name: "two group analysis", Connector: "rserve", Program: "twogroup.R",
			ParamSpec: []string{"reference_group"}, Active: true,
		})
		if err != nil {
			return err
		}
		expID, err = sys.DB.CreateExperiment(tx, "alice", model.Experiment{
			Name: "exp", Project: project, Resources: res.Resources,
		})
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys, expID, appID
}

func BenchmarkF14_RunExperiment(b *testing.B) {
	sys, expID, appID := benchExperiment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := sys.Update(func(tx *store.Tx) error {
			res, err := sys.Executor.RunExperiment(tx, apps.RunRequest{
				Experiment: expID, Application: appID,
				WorkunitName: fmt.Sprintf("run-%d", i),
				Params:       map[string]string{"reference_group": "control"},
				Actor:        "alice",
			})
			if err != nil {
				return err
			}
			if res.Failed {
				return fmt.Errorf("run failed: %s", res.Error)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF15_ExperimentWorkflow(b *testing.B) {
	// Isolates the workflow-engine overhead of an experiment run using a
	// no-op program on the same path.
	sys, expID, _ := benchExperiment(b)
	conn, err := sys.Connectors.Get("rserve")
	if err != nil {
		b.Fatal(err)
	}
	conn.(*apps.SimConnector).RegisterProgram("noop.R", func(apps.RunContext) ([]apps.OutputFile, error) {
		return []apps.OutputFile{{Name: "out.txt", Format: "txt", Data: []byte("ok")}}, nil
	})
	var noopApp int64
	_ = sys.Update(func(tx *store.Tx) error {
		noopApp, _ = sys.DB.CreateApplication(tx, "admin", model.Application{
			Name: "noop", Connector: "rserve", Program: "noop.R", Active: true,
		})
		return nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := sys.Update(func(tx *store.Tx) error {
			res, err := sys.Executor.RunExperiment(tx, apps.RunRequest{
				Experiment: expID, Application: noopApp,
				WorkunitName: fmt.Sprintf("noop-%d", i), Actor: "alice",
			})
			if err != nil {
				return err
			}
			if res.Failed {
				return fmt.Errorf("run failed: %s", res.Error)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF16_ResultZip(b *testing.B) {
	outputs := []apps.OutputFile{
		{Name: "results.csv", Data: make([]byte, 64<<10)},
		{Name: "report.txt", Data: make([]byte, 8<<10)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := apps.ZipOutputs(outputs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := apps.ReadZip(data); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(64<<10 + 8<<10))
}

// --- S-FT: full-text search ---------------------------------------------------------------------

func benchSearchSystem(b *testing.B, docs int) *core.System {
	b.Helper()
	sys, project := benchSystem(b, core.Options{DisableAudit: true})
	err := sys.Update(func(tx *store.Tx) error {
		for i := 0; i < docs; i++ {
			if _, err := sys.DB.CreateSample(tx, "alice", model.Sample{
				Name:        fmt.Sprintf("sample-%06d", i),
				Project:     project,
				Description: fmt.Sprintf("replicate %d of the arabidopsis light series batch %d", i%7, i%13),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func BenchmarkSFT_Index(b *testing.B) {
	for _, docs := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("docs=%d", docs), func(b *testing.B) {
			sys := benchSearchSystem(b, docs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Search.ReindexAll()
				sys.Search.Flush()
			}
			b.ReportMetric(float64(docs*b.N)/b.Elapsed().Seconds(), "docs/s")
		})
	}
}

func BenchmarkSFT_Query(b *testing.B) {
	for _, docs := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("docs=%d", docs), func(b *testing.B) {
			sys := benchSearchSystem(b, docs)
			if _, err := sys.Search.Search("", "arabidopsis"); err != nil { // warm index
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits, err := sys.Search.Search("", "arabidopsis light")
				if err != nil {
					b.Fatal(err)
				}
				if len(hits) != docs {
					b.Fatalf("hits = %d", len(hits))
				}
			}
		})
	}
}

// --- S-AU: audit logging --------------------------------------------------------------------------

func BenchmarkSAU_AuditLog(b *testing.B) {
	// Measures the overhead the audit subscription adds to entity writes.
	for _, audited := range []bool{false, true} {
		b.Run(fmt.Sprintf("audit=%v", audited), func(b *testing.B) {
			sys, project := benchSystem(b, core.Options{DisableSearch: true, DisableAudit: !audited})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := sys.Update(func(tx *store.Tx) error {
					_, err := sys.DB.CreateSample(tx, "alice", model.Sample{
						Name: fmt.Sprintf("s%d", i), Project: project,
					})
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- D1/D2: durability (WAL + group commit + recovery) -------------------------

// BenchmarkD1_DurableRegisterSample is F2 through the durable write path:
// every sample registration is WAL-logged before it is acknowledged. The
// sync policies bound the cost spectrum; the parallel group-commit
// variant shows concurrent registrations sharing fsyncs, which is how a
// facility-facing deployment would actually run SyncAlways.
func BenchmarkD1_DurableRegisterSample(b *testing.B) {
	durable := func(sync store.SyncPolicy) core.Options {
		return core.Options{
			DisableSearch: true, DisableAudit: true,
			DataDir: b.TempDir(), Sync: sync, SnapshotEvery: -1,
		}
	}
	register := func(sys *core.System, project int64, i int64) error {
		return sys.Update(func(tx *store.Tx) error {
			_, err := sys.DB.CreateSample(tx, "alice", model.Sample{
				Name: fmt.Sprintf("s%d", i), Project: project,
			})
			return err
		})
	}
	for _, sync := range []store.SyncPolicy{store.SyncOff, store.SyncInterval, store.SyncAlways} {
		b.Run("fsync-"+sync.String(), func(b *testing.B) {
			sys, project := benchSystem(b, durable(sync))
			defer sys.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := register(sys, project, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("fsync-always-group", func(b *testing.B) {
		sys, project := benchSystem(b, durable(store.SyncAlways))
		defer sys.Close()
		var seq atomic.Int64
		b.SetParallelism(64)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := register(sys, project, seq.Add(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkD2_Recovery measures cold-start recovery (store.Open: snapshot
// load + WAL replay + index-free arming) of a generated FGCZ-shaped
// population, both from a pure WAL (worst case: every commit replayed)
// and from a compacted snapshot (the state bfabric-admin snapshot leaves
// behind), and the write side of that snapshot: Save of the recovered
// population to io.Discard.
func BenchmarkD2_Recovery(b *testing.B) {
	const scale = 0.1 // ~7.6k entities, ~4.7k annotation links
	build := func(b *testing.B, compact bool) string {
		dir := b.TempDir()
		s, err := store.Open(dir, store.DurabilityOptions{Sync: store.SyncOff, SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		sys, err := core.NewWithStore(s, core.Options{DisableSearch: true, DisableAudit: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := genload.Generate(sys, genload.FGCZJan2010.Scaled(scale)); err != nil {
			b.Fatal(err)
		}
		if compact {
			if err := s.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	for _, variant := range []struct {
		name    string
		compact bool
	}{{"from-wal", false}, {"from-snapshot", true}} {
		b.Run(variant.name, func(b *testing.B) {
			dir := build(b, variant.compact)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := store.Open(dir, store.DurabilityOptions{Sync: store.SyncOff, SnapshotEvery: -1})
				if err != nil {
					b.Fatal(err)
				}
				if s.Count(model.KindWorkunit) == 0 {
					b.Fatal("incomplete recovery")
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("snapshot-write", func(b *testing.B) {
		s, err := store.Open(build(b, true), store.DurabilityOptions{Sync: store.SyncOff, SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Save(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Q1/Q2/Q3: declarative query engine ------------------------------------------

// queryBenchSystem lazily generates one FGCZ-scale population (the full
// January 2010 deployment shape) shared by the read-only query
// benchmarks; generation costs seconds and the benchmarks never mutate it.
var (
	queryBenchOnce sync.Once
	queryBenchSys  *core.System
	queryBenchErr  error
)

func queryBenchSystem(b *testing.B) *core.System {
	b.Helper()
	queryBenchOnce.Do(func() {
		queryBenchSys = core.MustNew(core.Options{DisableSearch: true, DisableAudit: true})
		queryBenchErr = genload.Generate(queryBenchSys, genload.FGCZJan2010)
	})
	if queryBenchErr != nil {
		b.Fatal(queryBenchErr)
	}
	return queryBenchSys
}

// scanAll visits every row of the table through the planner's scan path
// (no predicate): the unindexed baseline the Q benchmarks' "full-scan"
// rows price the planned paths against.
func scanAll(tx *store.Tx, table string, fn func(store.Record)) error {
	rows, err := tx.Query(store.Query{Table: table})
	if err != nil {
		return err
	}
	for rows.Next() {
		fn(rows.Record())
	}
	return rows.Err()
}

// BenchmarkQ1_PointLookup is the cheapest planned query: a unique-index
// point lookup (user by login) through the full plan-and-execute path.
func BenchmarkQ1_PointLookup(b *testing.B) {
	sys := queryBenchSystem(b)
	q := store.Query{Table: model.KindUser, Where: []store.Pred{store.Eq("login", "user0777")}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := sys.View(func(tx *store.Tx) error {
			rows, err := tx.Query(q)
			if err != nil {
				return err
			}
			if !rows.Next() {
				return fmt.Errorf("user0777 not found")
			}
			return rows.Err()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ2_IndexedMultiPredicate is the acceptance benchmark for the
// query engine: a two-predicate listing (samples of one project with one
// species annotation) over the deployment-scale sample table, once
// through the planner (which must drive from an index) and once through
// the retained full-scan baseline it replaced. The planned variant must
// beat the scan by ≥10x.
func BenchmarkQ2_IndexedMultiPredicate(b *testing.B) {
	sys := queryBenchSystem(b)
	const species = "Homo sapiens"
	// Pick the project with the most samples of the species so the result
	// is non-trivial.
	var project int64
	var expect int
	err := sys.View(func(tx *store.Tx) error {
		perProject := map[int64]int{}
		if err := scanAll(tx, model.KindSample, func(r store.Record) {
			if r.String("species") == species {
				perProject[r.Int("project")]++
			}
		}); err != nil {
			return err
		}
		for p, n := range perProject {
			if n > expect {
				project, expect = p, n
			}
		}
		q := store.Query{Table: model.KindSample, Where: []store.Pred{
			store.Eq("project", project), store.Eq("species", species),
		}}
		plan, err := tx.Explain(q)
		if err != nil {
			return err
		}
		if plan.Access != store.AccessIndex {
			return fmt.Errorf("plan %s: want index access", plan)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	q := store.Query{Table: model.KindSample, Where: []store.Pred{
		store.Eq("project", project), store.Eq("species", species),
	}}

	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := sys.View(func(tx *store.Tx) error {
				rows, err := tx.Query(q)
				if err != nil {
					return err
				}
				n := 0
				for rows.Next() {
					n++
				}
				if n != expect {
					return fmt.Errorf("planned matched %d, want %d", n, expect)
				}
				return rows.Err()
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})

	// The baseline every layer used before the engine: ordered full scan
	// plus Go-side filtering. Retained as the regression fence the planned
	// path is measured against.
	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := sys.View(func(tx *store.Tx) error {
				n := 0
				if err := scanAll(tx, model.KindSample, func(r store.Record) {
					if r.Int("project") == project && r.String("species") == species {
						n++
					}
				}); err != nil {
					return err
				}
				if n != expect {
					return fmt.Errorf("scan matched %d, want %d", n, expect)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQ3_OrderedPageUnderWriterLoad measures the portal's filtered
// browse shape — a keyset-cursor page of 50 format-filtered data
// resources — while a writer continuously rewrites rows in the same
// table. Readers pin MVCC versions and never block; this fences the
// engine's iterator against writer interference the way D3 fences raw
// scans.
func BenchmarkQ3_OrderedPageUnderWriterLoad(b *testing.B) {
	// A private, smaller population: the writer mutates it.
	sys := core.MustNew(core.Options{DisableSearch: true, DisableAudit: true})
	if err := genload.Generate(sys, genload.FGCZJan2010.Scaled(0.1)); err != nil {
		b.Fatal(err)
	}
	total := sys.Store.Count(model.KindDataResource)
	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		var i int64
		for {
			select {
			case <-stop:
				writerDone <- nil
				return
			default:
			}
			i++
			err := sys.Update(func(tx *store.Tx) error {
				id := i%int64(total) + 1
				r, err := tx.Get(model.KindDataResource, id)
				if err != nil {
					return err
				}
				r["size_bytes"] = i
				return tx.Put(model.KindDataResource, id, r)
			})
			if err != nil {
				writerDone <- err
				return
			}
		}
	}()
	var cursor atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			err := sys.View(func(tx *store.Tx) error {
				rows, err := tx.Query(store.Query{
					Table:  model.KindDataResource,
					Where:  []store.Pred{store.Eq("format", "cel")},
					Limit:  50,
					Cursor: cursor.Load() % int64(total),
				})
				if err != nil {
					return err
				}
				n := 0
				var last int64
				for rows.Next() {
					n++
					last = rows.ID()
				}
				if n == 50 {
					cursor.Store(last)
				} else {
					cursor.Store(0) // wrapped off the end: restart the walk
				}
				return rows.Err()
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	close(stop)
	if err := <-writerDone; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQ4_AggCount is the acceptance benchmark for ungrouped
// aggregation pushdown: counting the samples of one species. The planned
// path answers from index postings lengths (count(postings)) without
// materializing a single row; the retained full-scan fold is the baseline
// every reporting call site used before, and the fence the >=10x claim is
// measured against.
func BenchmarkQ4_AggCount(b *testing.B) {
	sys := queryBenchSystem(b)
	const species = "Homo sapiens"
	q := store.Query{Table: model.KindSample, Where: []store.Pred{store.Eq("species", species)}}
	var expect int
	err := sys.View(func(tx *store.Tx) error {
		if err := scanAll(tx, model.KindSample, func(r store.Record) {
			if r.String("species") == species {
				expect++
			}
		}); err != nil {
			return err
		}
		plan, err := tx.ExplainAgg(q.Count())
		if err != nil {
			return err
		}
		if plan.Agg != store.AggStrategyPostings {
			return fmt.Errorf("plan %s: want %s", plan, store.AggStrategyPostings)
		}
		return nil
	})
	if err != nil || expect == 0 {
		b.Fatalf("setup: expect=%d err=%v", expect, err)
	}

	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := sys.View(func(tx *store.Tx) error {
				n, err := tx.QueryCount(q)
				if err != nil {
					return err
				}
				if n != expect {
					return fmt.Errorf("counted %d, want %d", n, expect)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := sys.View(func(tx *store.Tx) error {
				n := 0
				if err := scanAll(tx, model.KindSample, func(r store.Record) {
					if r.String("species") == species {
						n++
					}
				}); err != nil {
					return err
				}
				if n != expect {
					return fmt.Errorf("scan counted %d, want %d", n, expect)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQ5_GroupBy is the acceptance benchmark for grouped aggregation
// pushdown: the species histogram over every sample (the
// /api/stats/sample?by=species shape). The planned path walks the species
// index's distinct keys — O(distinct values) — while the retained
// scan-and-fold baseline visits every row.
func BenchmarkQ5_GroupBy(b *testing.B) {
	sys := queryBenchSystem(b)
	aq := store.Query{Table: model.KindSample}.GroupBy("species")
	want := map[string]int{}
	err := sys.View(func(tx *store.Tx) error {
		if err := scanAll(tx, model.KindSample, func(r store.Record) {
			if s := r.String("species"); s != "" {
				want[s]++
			}
		}); err != nil {
			return err
		}
		plan, err := tx.ExplainAgg(aq)
		if err != nil {
			return err
		}
		if plan.Agg != store.AggStrategyPostings {
			return fmt.Errorf("plan %s: want %s", plan, store.AggStrategyPostings)
		}
		return nil
	})
	if err != nil || len(want) == 0 {
		b.Fatalf("setup: %d species, err=%v", len(want), err)
	}

	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := sys.View(func(tx *store.Tx) error {
				res, err := tx.Aggregate(aq)
				if err != nil {
					return err
				}
				if len(res.Groups) != len(want) {
					return fmt.Errorf("%d groups, want %d", len(res.Groups), len(want))
				}
				for _, g := range res.Groups {
					if g.Count() != want[g.Key.(string)] {
						return fmt.Errorf("group %v = %d, want %d", g.Key, g.Count(), want[g.Key.(string)])
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := sys.View(func(tx *store.Tx) error {
				got := map[string]int{}
				if err := scanAll(tx, model.KindSample, func(r store.Record) {
					if s := r.String("species"); s != "" {
						got[s]++
					}
				}); err != nil {
					return err
				}
				if len(got) != len(want) {
					return fmt.Errorf("scan folded %d groups, want %d", len(got), len(want))
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- D3: MVCC non-blocking reads under write load -------------------------------

// BenchmarkD3_ReadUnderWriteLoad measures the portal's hot read shape — a
// paginated browse page plus a point lookup, zero-copy, inside one View —
// first against an idle store and then while a writer commits
// continuously into the same table. Under the MVCC store the two numbers
// must stay within a few percent of each other: readers pin a version and
// never touch a lock, so a committing writer cannot stall them. (Under
// the former single-RWMutex store, every commit stalled every reader;
// this benchmark is the regression fence for that interference.)
func BenchmarkD3_ReadUnderWriteLoad(b *testing.B) {
	const rows = 5000
	const page = 50
	setup := func(b *testing.B) *core.System {
		sys, project := benchSystem(b, core.Options{DisableSearch: true, DisableAudit: true})
		err := sys.Update(func(tx *store.Tx) error {
			for i := 0; i < rows; i++ {
				if _, err := sys.DB.CreateSample(tx, "alice", model.Sample{
					Name: fmt.Sprintf("s%d", i), Project: project,
				}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		return sys
	}
	readPage := func(sys *core.System, from int64) error {
		return sys.View(func(tx *store.Tx) error {
			rs, err := tx.Query(store.Query{Table: model.KindSample, Cursor: from - 1, Limit: page})
			if err != nil {
				return err
			}
			for rs.Next() {
			}
			if err := rs.Err(); err != nil {
				return err
			}
			_, err = tx.GetRef(model.KindSample, from%rows+1)
			return err
		})
	}

	b.Run("idle", func(b *testing.B) {
		sys := setup(b)
		var off atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := readPage(sys, off.Add(page)%rows+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	})

	// runUnderWriter measures the readers while a background writer
	// commits single-row rewrites into the table being read — every
	// commit publishes a fresh store version and copies the touched
	// chunk, the worst case for reader cache reuse. interval 0 means an
	// unpaced, CPU-saturating writer.
	runUnderWriter := func(b *testing.B, interval time.Duration) {
		sys := setup(b)
		stop := make(chan struct{})
		writerDone := make(chan error, 1)
		var commits atomic.Int64
		go func() {
			var tick <-chan time.Time
			if interval > 0 {
				t := time.NewTicker(interval)
				defer t.Stop()
				tick = t.C
			}
			var i int64
			for {
				select {
				case <-stop:
					writerDone <- nil
					return
				default:
				}
				if tick != nil {
					select {
					case <-tick:
					case <-stop:
						writerDone <- nil
						return
					}
				}
				i++
				err := sys.Update(func(tx *store.Tx) error {
					return tx.Put(model.KindSample, i%rows+1, store.Record{
						"name": fmt.Sprintf("rewrite%d", i), "project": int64(1),
					})
				})
				if err != nil {
					writerDone <- err
					return
				}
				commits.Add(1)
			}
		}()
		var off atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := readPage(sys, off.Add(page)%rows+1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.ReportMetric(float64(commits.Load())/b.Elapsed().Seconds(), "commits/s")
		b.StopTimer()
		close(stop)
		if err := <-writerDone; err != nil {
			b.Fatal(err)
		}
	}

	// A write transaction held open across the whole measurement. Under
	// the former single-RWMutex store this configuration did not degrade
	// readers — it starved them outright (View blocked until the Update
	// returned). Under MVCC it must cost nothing at all: the open
	// transaction consumes no CPU and holds no lock a reader looks at.
	b.Run("writer-transaction-open", func(b *testing.B) {
		sys := setup(b)
		inTx := make(chan struct{})
		release := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = sys.Update(func(tx *store.Tx) error {
				_, err := tx.Insert(model.KindSample, store.Record{
					"name": "held-open", "project": int64(1),
				})
				close(inTx)
				<-release
				return err
			})
		}()
		<-inTx
		var off atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := readPage(sys, off.Add(page)%rows+1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.StopTimer()
		close(release)
		<-done
	})

	// 2000 commits/s is the "heavy bulk import" shape — orders of
	// magnitude above the original deployment's sustained write rate.
	// Readers never wait on these commits, so their throughput must stay
	// within a few percent of idle; what little they pay is the CPU the
	// writer itself consumes.
	b.Run("writer-2k-per-s", func(b *testing.B) {
		runUnderWriter(b, 500*time.Microsecond)
	})

	// An unpaced writer saturating a core. On few-core hosts this
	// measures CPU sharing between reader and writer goroutines, not
	// lock interference (there are no reader-visible locks left); it
	// bounds the worst case rather than the expected one.
	b.Run("writer-saturating", func(b *testing.B) {
		runUnderWriter(b, 0)
	})
}
