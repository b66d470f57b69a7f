// Golden equivalence tests for the declarative query engine: every call
// site refactored onto Tx.Query in model, tasks and audit is checked
// against the hand-rolled scan-and-filter it replaced, on a
// genload-populated store (the FGCZ deployment shape at reduced scale).
// The engine may pick any access path it likes; the results must be
// byte-for-byte what a naive id-by-id walk plus Go-side filtering yields.
package repro_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/genload"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/tasks"
)

// equivSystem generates the scaled FGCZ population with the audit trail
// enabled, so audit queries have real data to answer over.
func equivSystem(t *testing.T) *core.System {
	t.Helper()
	sys := core.MustNew(core.Options{DisableSearch: true})
	if err := genload.Generate(sys, genload.FGCZJan2010.Scaled(0.05)); err != nil {
		t.Fatal(err)
	}
	return sys
}

// scanRecords is the baseline the engine is refereed by: a naive walk —
// ids 1, 2, 3… through GetRef until Count(table) live rows have been seen —
// plus a Go-side filter. It shares no iterator, merge or index with the
// executor, so the planner is never checked against itself.
func scanRecords(t *testing.T, tx *store.Tx, table string, keep func(store.Record) bool) []store.Record {
	t.Helper()
	var out []store.Record
	for id, seen, n := int64(1), 0, tx.Count(table); seen < n; id++ {
		r, err := tx.GetRef(table, id)
		if errors.Is(err, store.ErrNotFound) && id < 1<<22 {
			continue
		}
		if err != nil {
			t.Fatalf("naive walk of %s at id %d (%d of %d rows seen): %v", table, id, seen, n, err)
		}
		seen++
		if rec := r.Record(); keep(rec) {
			out = append(out, rec)
		}
	}
	return out
}

func recordIDs(rs []store.Record) []int64 {
	ids := make([]int64, len(rs))
	for i, r := range rs {
		ids[i] = r.ID()
	}
	return ids
}

func TestQueryEquivalenceModel(t *testing.T) {
	sys := equivSystem(t)
	db := sys.DB
	err := sys.View(func(tx *store.Tx) error {
		// UsersByRole: engine result == scan result, for every role.
		for _, role := range []string{model.RoleAdmin, model.RoleExpert, model.RoleScientist} {
			got, err := db.UsersByRole(tx, role)
			if err != nil {
				return err
			}
			want := scanRecords(t, tx, model.KindUser, func(r store.Record) bool {
				return r.String("role") == role
			})
			if len(got) != len(want) {
				t.Fatalf("UsersByRole(%s): %d users, scan found %d", role, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID() || got[i].Login != want[i].String("login") {
					t.Fatalf("UsersByRole(%s)[%d] = %+v, want record %v", role, i, got[i], want[i])
				}
			}
			active, err := db.ActiveUsersByRole(tx, role)
			if err != nil {
				return err
			}
			wantActive := scanRecords(t, tx, model.KindUser, func(r store.Record) bool {
				return r.String("role") == role && r.Bool("active")
			})
			if !reflect.DeepEqual(recordIDs(wantActive), userIDs(active)) {
				t.Fatalf("ActiveUsersByRole(%s) ids diverge from scan", role)
			}
		}

		// SamplesOfProject / SamplesOfProjectBySpecies across all projects.
		projects := scanRecords(t, tx, model.KindProject, func(store.Record) bool { return true })
		for _, p := range projects {
			pid := p.ID()
			got, err := db.SamplesOfProject(tx, pid)
			if err != nil {
				return err
			}
			want := scanRecords(t, tx, model.KindSample, func(r store.Record) bool {
				return r.Int("project") == pid
			})
			if !reflect.DeepEqual(recordIDs(want), sampleIDs(got)) {
				t.Fatalf("SamplesOfProject(%d) ids diverge from scan", pid)
			}
			gotSp, err := db.SamplesOfProjectBySpecies(tx, pid, "Homo sapiens")
			if err != nil {
				return err
			}
			wantSp := scanRecords(t, tx, model.KindSample, func(r store.Record) bool {
				return r.Int("project") == pid && r.String("species") == "Homo sapiens"
			})
			if !reflect.DeepEqual(recordIDs(wantSp), sampleIDs(gotSp)) {
				t.Fatalf("SamplesOfProjectBySpecies(%d) ids diverge from scan", pid)
			}

			// ExtractsOfProject == scan of extracts joined through samples.
			gotEx, err := db.ExtractsOfProject(tx, pid)
			if err != nil {
				return err
			}
			inProject := map[int64]bool{}
			for _, s := range scanRecords(t, tx, model.KindSample, func(r store.Record) bool {
				return r.Int("project") == pid
			}) {
				inProject[s.ID()] = true
			}
			wantEx := scanRecords(t, tx, model.KindExtract, func(r store.Record) bool {
				return inProject[r.Int("sample")]
			})
			if !reflect.DeepEqual(recordIDs(wantEx), extractIDs(gotEx)) {
				t.Fatalf("ExtractsOfProject(%d) ids diverge from scan", pid)
			}

			// WorkunitsOfProject, all states and the ready slice.
			for _, state := range []string{"", model.WorkunitReady, model.WorkunitFailed} {
				gotWu, err := db.WorkunitsOfProject(tx, pid, state)
				if err != nil {
					return err
				}
				wantWu := scanRecords(t, tx, model.KindWorkunit, func(r store.Record) bool {
					return r.Int("project") == pid && (state == "" || r.String("state") == state)
				})
				if len(gotWu) != len(wantWu) {
					t.Fatalf("WorkunitsOfProject(%d, %q): %d vs scan %d", pid, state, len(gotWu), len(wantWu))
				}
				for i := range gotWu {
					if gotWu[i].ID != wantWu[i].ID() {
						t.Fatalf("WorkunitsOfProject(%d, %q)[%d] id mismatch", pid, state, i)
					}
				}
			}
		}

		// ExtractsOfSample and ResourcesOfWorkunit[ByFormat] over a spread
		// of parents.
		for sid := int64(1); sid <= 150; sid += 17 {
			got, err := db.ExtractsOfSample(tx, sid)
			if err != nil {
				return err
			}
			want := scanRecords(t, tx, model.KindExtract, func(r store.Record) bool {
				return r.Int("sample") == sid
			})
			if !reflect.DeepEqual(recordIDs(want), extractIDs(got)) {
				t.Fatalf("ExtractsOfSample(%d) ids diverge from scan", sid)
			}
		}
		for wid := int64(1); wid <= 1100; wid += 173 {
			got, err := db.ResourcesOfWorkunit(tx, wid)
			if err != nil {
				return err
			}
			want := scanRecords(t, tx, model.KindDataResource, func(r store.Record) bool {
				return r.Int("workunit") == wid
			})
			if !reflect.DeepEqual(recordIDs(want), resourceIDs(got)) {
				t.Fatalf("ResourcesOfWorkunit(%d) ids diverge from scan", wid)
			}
			gotCel, err := db.ResourcesOfWorkunitByFormat(tx, wid, "cel")
			if err != nil {
				return err
			}
			wantCel := scanRecords(t, tx, model.KindDataResource, func(r store.Record) bool {
				return r.Int("workunit") == wid && r.String("format") == "cel"
			})
			if !reflect.DeepEqual(recordIDs(wantCel), resourceIDs(gotCel)) {
				t.Fatalf("ResourcesOfWorkunitByFormat(%d) ids diverge from scan", wid)
			}
		}

		// The hot listing must actually be planned off an index at this
		// scale — the acceptance shape for the whole refactor.
		plan, err := tx.Explain(store.Query{
			Table: model.KindSample,
			Where: []store.Pred{store.Eq("project", int64(1)), store.Eq("species", "Homo sapiens")},
		})
		if err != nil {
			return err
		}
		if plan.Access != store.AccessIndex {
			t.Errorf("multi-predicate sample listing plans %s, want an index access path", plan)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func userIDs(us []model.User) []int64 {
	ids := make([]int64, len(us))
	for i, u := range us {
		ids[i] = u.ID
	}
	return ids
}

func sampleIDs(ss []model.Sample) []int64 {
	ids := make([]int64, len(ss))
	for i, s := range ss {
		ids[i] = s.ID
	}
	return ids
}

func extractIDs(es []model.Extract) []int64 {
	ids := make([]int64, len(es))
	for i, e := range es {
		ids[i] = e.ID
	}
	return ids
}

func resourceIDs(ds []model.DataResource) []int64 {
	ids := make([]int64, len(ds))
	for i, d := range ds {
		ids[i] = d.ID
	}
	return ids
}

func TestQueryEquivalenceTasks(t *testing.T) {
	sys := equivSystem(t)
	// Seed a mixed task population: role-assigned, login-assigned, open,
	// closed, across a few objects.
	err := sys.Update(func(tx *store.Tx) error {
		for i := 0; i < 40; i++ {
			task := tasks.Task{
				Type:  tasks.TypeAssignExtracts,
				Title: fmt.Sprintf("task %d", i),
				Kind:  model.KindWorkunit,
				Ref:   int64(i%5 + 1),
			}
			if i%3 == 0 {
				task.AssigneeRole = "expert"
			} else if i%3 == 1 {
				task.AssigneeLogin = "user0007"
			} else {
				task.AssigneeRole = "admin"
				task.AssigneeLogin = "user0007"
			}
			id, err := sys.Tasks.Create(tx, task)
			if err != nil {
				return err
			}
			if i%4 == 0 {
				if err := sys.Tasks.Complete(tx, "closer", id); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.View(func(tx *store.Tx) error {
		got, err := sys.Tasks.ListOpen(tx, "user0007", "expert", "admin")
		if err != nil {
			return err
		}
		// Baseline: full scan, Go-side visibility filter, id order.
		want := scanRecords(t, tx, "task", func(r store.Record) bool {
			if r.String("state") != tasks.StateOpen {
				return false
			}
			role := r.String("assignee_role")
			return r.String("assignee_login") == "user0007" || role == "expert" || role == "admin"
		})
		if len(got) != len(want) {
			t.Fatalf("ListOpen: %d tasks, scan found %d", len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID() {
				t.Fatalf("ListOpen[%d] = id %d, scan %d", i, got[i].ID, want[i].ID())
			}
		}
		for ref := int64(1); ref <= 5; ref++ {
			gotObj, err := sys.Tasks.OpenForObject(tx, model.KindWorkunit, ref)
			if err != nil {
				return err
			}
			wantObj := scanRecords(t, tx, "task", func(r store.Record) bool {
				return r.String("state") == tasks.StateOpen &&
					r.String("kind") == model.KindWorkunit && r.Int("ref") == ref
			})
			if len(gotObj) != len(wantObj) {
				t.Fatalf("OpenForObject(%d): %d vs scan %d", ref, len(gotObj), len(wantObj))
			}
			for i := range gotObj {
				if gotObj[i].ID != wantObj[i].ID() {
					t.Fatalf("OpenForObject(%d)[%d] id mismatch", ref, i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQueryEquivalenceAudit(t *testing.T) {
	sys := equivSystem(t)
	log := sys.Audit
	// A second actor's worth of manipulations on top of genload's.
	err := sys.Update(func(tx *store.Tx) error {
		for i := 0; i < 10; i++ {
			if _, err := sys.DB.CreateSample(tx, "carol", model.Sample{
				Name: fmt.Sprintf("carol-%d", i), Project: 1,
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.View(func(tx *store.Tx) error {
		for _, actor := range []string{"genload", "carol", "nobody"} {
			got, err := log.ByActor(tx, actor)
			if err != nil {
				return err
			}
			want := scanRecords(t, tx, "_audit", func(r store.Record) bool {
				return r.String("actor") == actor
			})
			if len(got) != len(want) {
				t.Fatalf("ByActor(%s): %d vs scan %d", actor, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID() {
					t.Fatalf("ByActor(%s)[%d] id mismatch", actor, i)
				}
			}
		}

		// ByObject over a handful of refkeys.
		for ref := int64(1); ref <= 9; ref += 2 {
			got, err := log.ByObject(tx, model.KindSample, ref)
			if err != nil {
				return err
			}
			key := fmt.Sprintf("%s:%d", model.KindSample, ref)
			want := scanRecords(t, tx, "_audit", func(r store.Record) bool {
				return r.String("refkey") == key
			})
			if len(got) != len(want) {
				t.Fatalf("ByObject(sample, %d): %d vs scan %d", ref, len(got), len(want))
			}
		}

		// Recent(n) == scan + sort by seq + take last n, newest first.
		for _, n := range []int{5, 50, 1 << 20} {
			got, err := log.Recent(tx, n)
			if err != nil {
				return err
			}
			all := scanRecords(t, tx, "_audit", func(store.Record) bool { return true })
			want := all
			if len(want) > n {
				want = want[len(want)-n:]
			}
			if len(got) != len(want) {
				t.Fatalf("Recent(%d): %d vs scan %d", n, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[len(want)-1-i].ID() {
					t.Fatalf("Recent(%d)[%d] = id %d, want %d", n, i, got[i].ID, want[len(want)-1-i].ID())
				}
			}
		}

		// Time-window queries: everything lies after the distant past and
		// nothing after the far future.
		past := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
		future := time.Now().UTC().Add(24 * time.Hour)
		all, err := log.ByTimeRange(tx, past, time.Time{})
		if err != nil {
			return err
		}
		if total := len(scanRecords(t, tx, "_audit", func(store.Record) bool { return true })); len(all) != total {
			t.Fatalf("ByTimeRange(past, ∞) = %d entries, want all %d", len(all), total)
		}
		none, err := log.ByActorSince(tx, "carol", future)
		if err != nil {
			return err
		}
		if len(none) != 0 {
			t.Fatalf("ByActorSince(future) = %d entries, want 0", len(none))
		}
		carol, err := log.ByActorSince(tx, "carol", past)
		if err != nil {
			return err
		}
		carolAll, err := log.ByActor(tx, "carol")
		if err != nil {
			return err
		}
		if len(carol) != len(carolAll) {
			t.Fatalf("ByActorSince(past) = %d, ByActor = %d", len(carol), len(carolAll))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
