// Ablation benchmarks for the design choices called out in DESIGN.md:
// secondary indexes vs full scans, transaction batch sizing for bulk loads
// (the overlay-scan effect), and the cost of each event subscriber on the
// write path.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/store"
)

// BenchmarkAblationIndexedLookup compares equality lookups through a
// secondary index against the unindexed fallback scan.
func BenchmarkAblationIndexedLookup(b *testing.B) {
	for _, rows := range []int{1000, 10000} {
		for _, indexed := range []bool{true, false} {
			b.Run(fmt.Sprintf("rows=%d/indexed=%v", rows, indexed), func(b *testing.B) {
				s := store.New()
				if err := s.CreateTable("t"); err != nil {
					b.Fatal(err)
				}
				if indexed {
					if err := s.CreateIndex("t", "grp", false); err != nil {
						b.Fatal(err)
					}
				}
				err := s.Update(func(tx *store.Tx) error {
					for i := 0; i < rows; i++ {
						if _, err := tx.Insert("t", store.Record{
							"grp": fmt.Sprintf("g%d", i%100),
						}); err != nil {
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
					err := s.View(func(tx *store.Tx) error {
						rs, err := tx.Query(store.Query{Table: "t", Where: []store.Pred{store.Eq("grp", "g42")}})
						if err != nil {
							return err
						}
						ids, err := rs.IDs()
						if err != nil {
							return err
						}
						if len(ids) != rows/100 {
							return fmt.Errorf("ids = %d", len(ids))
						}
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationTxBatchSize fences the linearity of bulk
// transactions: the overlay's per-index key maps keep unique checks and
// lookups O(1) per write, so samples/s must stay flat (or improve, as
// per-commit costs amortize) as the batch grows. Before the indexed
// overlay, per-insert cost grew with transaction size and batch=2000 ran
// 7x slower than batch=100.
func BenchmarkAblationTxBatchSize(b *testing.B) {
	const total = 2000
	for _, batch := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := core.MustNew(core.Options{DisableSearch: true, DisableAudit: true})
				var project int64
				err := sys.Update(func(tx *store.Tx) error {
					var err error
					project, err = sys.DB.CreateProject(tx, "x", model.Project{Name: "p"})
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
				for start := 0; start < total; start += batch {
					end := start + batch
					if end > total {
						end = total
					}
					err := sys.Update(func(tx *store.Tx) error {
						for j := start; j < end; j++ {
							if _, err := sys.DB.CreateSample(tx, "x", model.Sample{
								Name: fmt.Sprintf("s%d", j), Project: project,
							}); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// BenchmarkAblationEventSubscribers measures the incremental write-path
// cost of each event consumer: none, audit only, audit + search
// dirty-marking.
func BenchmarkAblationEventSubscribers(b *testing.B) {
	cases := []struct {
		name string
		opts core.Options
	}{
		{"none", core.Options{DisableSearch: true, DisableAudit: true}},
		{"audit", core.Options{DisableSearch: true}},
		{"audit+search", core.Options{}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			sys := core.MustNew(c.opts)
			var project int64
			err := sys.Update(func(tx *store.Tx) error {
				var err error
				project, err = sys.DB.CreateProject(tx, "x", model.Project{Name: "p"})
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := sys.Update(func(tx *store.Tx) error {
					_, err := sys.DB.CreateSample(tx, "x", model.Sample{
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

// BenchmarkAblationLinkGraphMaintenance isolates the cost of bidirectional
// link bookkeeping by comparing entity creation with many references
// against creation with none.
func BenchmarkAblationLinkGraphMaintenance(b *testing.B) {
	for _, refs := range []int{0, 8, 32} {
		b.Run(fmt.Sprintf("refs=%d", refs), func(b *testing.B) {
			sys := core.MustNew(core.Options{DisableSearch: true, DisableAudit: true})
			var project int64
			var resources []int64
			err := sys.Update(func(tx *store.Tx) error {
				var err error
				project, err = sys.DB.CreateProject(tx, "x", model.Project{Name: "p"})
				if err != nil {
					return err
				}
				wu, err := sys.DB.CreateWorkunit(tx, "x", model.Workunit{Name: "w", Project: project})
				if err != nil {
					return err
				}
				for i := 0; i < refs; i++ {
					id, err := sys.DB.CreateDataResource(tx, "x", model.DataResource{
						Name: fmt.Sprintf("r%d", i), Workunit: wu,
					})
					if err != nil {
						return err
					}
					resources = append(resources, id)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := sys.Update(func(tx *store.Tx) error {
					_, err := sys.DB.CreateExperiment(tx, "x", model.Experiment{
						Name: fmt.Sprintf("e%d", i), Project: project,
						Resources: resources,
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
