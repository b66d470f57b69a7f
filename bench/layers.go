package main

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/benchfs"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/events"
	"repro/internal/model"
	"repro/internal/repl"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/tasks"
	"repro/internal/vocab"
)

// rungTable is a table the benchmark owns in every store it commits
// single-record rungs to, so those commits touch no entity machinery.
const rungTable = "bench_rung"

// wired is a hand-wired in-memory system: the same layers core wires, with
// each commit-path subscriber optional, so a subscriber's cost is the
// difference between two of these.
type wired struct {
	s       *store.Store
	db      *model.DB
	vocab   *vocab.Service
	project int64
	n       int
}

func wire(withAudit, withSearch, withTasks bool) (*wired, error) {
	s := store.New()
	bus := events.NewBus()
	rg := entity.NewRegistry(s, bus)
	if err := model.RegisterSchema(rg); err != nil {
		return nil, err
	}
	w := &wired{s: s, db: model.NewDB(rg), vocab: vocab.New(rg, model.AnnotatedFields(rg))}
	if withTasks {
		tasks.New(s, bus)
	}
	if withAudit {
		audit.New(s, bus)
	}
	if withSearch {
		search.New(rg)
	}
	s.EnsureTable(rungTable)
	err := s.Update(func(tx *store.Tx) error {
		for _, t := range [][2]string{{model.VocabSpecies, "Homo sapiens"}, {model.VocabTissue, "Liver"}, {model.VocabTreatment, "None"}} {
			if _, err := w.vocab.AddTerm(tx, "bench", t[0], t[1], true); err != nil {
				return err
			}
		}
		var err error
		w.project, err = w.db.CreateProject(tx, "bench", model.Project{Name: "rung", Area: "genomics"})
		return err
	})
	return w, err
}

// createSample registers one sample in its own transaction, the way the
// portal's create-sample handler does below its checks.
func (w *wired) createSample() error {
	w.n++
	return w.s.Update(func(tx *store.Tx) error {
		_, err := w.db.CreateSample(tx, "bench", model.Sample{
			Name: fmt.Sprintf("rung-%07d", w.n), Project: w.project,
			Species: "Homo sapiens", Tissue: "Liver", Treatment: "None",
		})
		return err
	})
}

func (w *wired) createAnnotation() error {
	w.n++
	return w.s.Update(func(tx *store.Tx) error {
		_, err := w.vocab.AddTerm(tx, "bench", model.VocabTreatment, fmt.Sprintf("rung %016x", uint64(w.n)*0x9E3779B97F4A7C15), false)
		return err
	})
}

func insertRung(s *store.Store, i int) error {
	return s.Update(func(tx *store.Tx) error {
		_, err := tx.Insert(rungTable, store.Record{"n": int64(i), "name": "rung"})
		return err
	})
}

// followInProcess attaches an in-memory follower to a shipper and waits
// until it has applied head. It returns the follower, its store and how
// long the catch-up took.
func followInProcess(addr string, head uint64) (*repl.Follower, *store.Store, time.Duration, error) {
	fsys, err := core.NewWithStore(store.New(), core.Options{DisableSearch: true})
	if err != nil {
		return nil, nil, 0, err
	}
	fsys.Store.EnsureTable(rungTable)
	fsys.Store.SetReplica(true)
	f := repl.NewFollower(fsys.Store, addr, repl.FollowerOptions{})
	start := time.Now()
	f.Start()
	if err := f.WaitForSeq(head, 60*time.Second); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	return f, fsys.Store, time.Since(start), nil
}

// layerRungs replays calls into each layer's public functions with the
// inputs the script's requests carry, and measures snapshot, recovery and
// replication on the loaded system. It closes sys.
func layerRungs(tr *traceRec, sys *core.System, fsys *benchfs.FS, pop *population, tokens []string, dir string, rungCalls int) (map[string]metric, error) {
	out := map[string]metric{}
	var errMu sync.Mutex
	var firstErr error
	keep := func(err error) { // also called from the background writer
		errMu.Lock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	p50 := func(name string, s *sample) { out[name] = metric{Value: s.p(50), Unit: "us", N: s.n()} }
	view := func(fn func(tx *store.Tx) error) { keep(sys.View(fn)) }

	// auth: the session-user cache, inside a transaction the caller holds.
	view(func(tx *store.Tx) error {
		p50("auth.session_user_us", tr.rung("auth.session_user", rungCalls, func(i int) {
			_, err := sys.Auth.SessionUser(tx, tokens[i%len(tokens)])
			keep(err)
		}))
		return nil
	})

	// store read path, with the predicates the browse streams carry.
	var queries []store.Query
	for _, u := range []benchUser{pop.Users[0], pop.Users[2]} {
		for _, st := range u.Streams {
			q := store.Query{Table: st.Kind}
			if st.Filter != "" {
				preds, err := filterPreds(st.Filter)
				keep(err)
				q.Where = preds
			}
			queries = append(queries, q)
		}
	}
	cursors := make([]int64, len(queries))
	page := func(i int) {
		k := i % len(queries)
		q := queries[k]
		q.Cursor = cursors[k]
		view(func(tx *store.Tx) error {
			rows, err := tx.Query(q)
			if err != nil {
				return err
			}
			n, last := 0, int64(0)
			for n <= pageLimit && rows.Next() {
				last = rows.Record().ID()
				n++
			}
			cursors[k] = last
			if n <= pageLimit {
				cursors[k] = 0
			}
			return rows.Err()
		})
	}
	p50("store.query_page_us", tr.rung("store.query_page", rungCalls, page))
	p50("store.get_ref_us", tr.rung("store.get_ref", rungCalls, func(i int) {
		u := pop.Users[i%len(pop.Users)]
		view(func(tx *store.Tx) error {
			_, err := tx.GetRef(model.KindSample, u.Samples[i%len(u.Samples)])
			return err
		})
	}))
	p50("store.agg_us", tr.rung("store.agg", rungCalls, func(i int) {
		view(func(tx *store.Tx) error {
			_, err := tx.Aggregate(store.Query{Table: model.KindWorkunit}.GroupBy("state"))
			return err
		})
	}))
	p50("model.stats_us", tr.rung("model.stats", rungCalls, func(int) {
		view(func(tx *store.Tx) error { sys.DB.CollectStatsTx(tx); return nil })
	}))
	p50("vocab.similar_us", tr.rung("vocab.similar", rungCalls/4, func(i int) {
		view(func(tx *store.Tx) error {
			_, err := sys.Vocab.Similar(tx, model.VocabTreatment, fmt.Sprintf("rung %016x", uint64(i)*0x9E3779B97F4A7C15))
			return err
		})
	}))

	// search: queries against a clean index, then a flush after 100 writes.
	p50("search.query_us", tr.rung("search.query", rungCalls/4, func(i int) {
		_, err := sys.Search.Search("", fmt.Sprintf("sample-%05d", 1+i%min(pop.Samples, 256)))
		keep(err)
	}))
	home := pop.Users[0].Home
	for i := 0; i < 100; i++ {
		keep(sys.Update(func(tx *store.Tx) error {
			_, err := sys.DB.CreateSample(tx, "bench", model.Sample{Name: fmt.Sprintf("flush-%03d", i), Project: home})
			return err
		}))
	}
	flush := tr.rung("search.flush", 1, func(int) { sys.Search.Flush() })
	out["search.flush_us"] = metric{Value: flush.p(50), Unit: "us", N: 100}
	out["search.docs"] = metric{Value: float64(sys.Search.IndexedDocs()), Unit: "count", N: 1}

	// The durable one-insert commit, through the counting filesystem; and
	// the same page query while those commits keep landing.
	sys.Store.EnsureTable(rungTable)
	durable := tr.rung("wal.durable_commit", rungCalls/4, func(i int) { keep(insertRung(sys.Store, i)) })
	var stopWriter atomic.Bool
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; !stopWriter.Load(); i++ {
			keep(insertRung(sys.Store, i))
		}
	}()
	for i := range cursors {
		cursors[i] = 0
	}
	p50("store.query_page_under_write_us", tr.rung("store.query_page_under_write", rungCalls, page))
	stopWriter.Store(true)
	<-writerDone

	// repl: apply cost per frame, catch-up from the log, visibility of a
	// commit on a live follower, then catch-up from a snapshot.
	applyTo, err := core.NewWithStore(store.New(), core.Options{DisableSearch: true})
	keep(err)
	if err == nil {
		applyTo.Store.EnsureTable(rungTable)
		applyTo.Store.SetReplica(true)
		apply := &sample{}
		keep(sys.Store.WALFrames(1, func(seq uint64, payload []byte) error {
			start := time.Now()
			_, err := applyTo.Store.ApplyReplicated(payload)
			end := time.Now()
			tr.add(0, 0, 0, "repl.apply", start, end)
			apply.add(us(end.Sub(start)))
			return err
		}))
		p50("repl.apply_us", apply)
	}
	shipper := repl.NewServer(sys.Store)
	shipAddr, err := shipper.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer shipper.Close()
	f, fstore, took, err := followInProcess(shipAddr, sys.Store.CommitSeq())
	if err != nil {
		return nil, fmt.Errorf("catch-up from the log: %w", err)
	}
	out["repl.catchup_log_ms"] = metric{Value: ms(took), Unit: "ms", N: 1}
	visible, lag := &sample{}, &sample{}
	for i := 0; i < rungCalls/4; i++ {
		keep(insertRung(sys.Store, i))
		start := time.Now()
		seq := sys.Store.CommitSeq()
		lag.add(float64(f.Status().Lag()))
		for fstore.CommitSeq() < seq && time.Since(start) < 5*time.Second {
			runtime.Gosched()
		}
		end := time.Now()
		tr.add(0, 0, 0, "repl.visible", start, end)
		visible.add(us(end.Sub(start)))
	}
	f.Close()
	out["repl.visible_us.p50"] = metric{Value: visible.p(50), Unit: "us", N: visible.n()}
	out["repl.visible_us.p99"] = metric{Value: visible.p(99), Unit: "us", N: visible.n()}
	out["repl.lag_commits_p99"] = metric{Value: lag.p(99), Unit: "count", N: lag.n()}

	snap := tr.rung("snapshot.write", 1, func(int) { keep(sys.Store.Snapshot()) })
	out["snapshot.write_ms"] = metric{Value: snap.p(50) / 1000, Unit: "ms", N: 1}
	if info, err := os.Stat(filepath.Join(dir, "snapshot.gob")); err == nil {
		out["snapshot.bytes"] = metric{Value: float64(info.Size()), Unit: "B", N: 1}
	} else {
		keep(err)
	}
	// The snapshot truncated the log, so a follower starting from nothing
	// can only be served the snapshot.
	f, _, took, err = followInProcess(shipAddr, sys.Store.CommitSeq())
	if err != nil {
		return nil, fmt.Errorf("catch-up from the snapshot: %w", err)
	}
	f.Close()
	out["repl.catchup_snapshot_ms"] = metric{Value: ms(took), Unit: "ms", N: 1}
	shipper.Close()

	keep(sys.Close())
	var reopened *store.Store
	rec := tr.rung("recover.from_snapshot", 1, func(int) {
		reopened, err = store.Open(dir, store.DurabilityOptions{Sync: store.SyncAlways, FS: fsys})
		keep(err)
	})
	out["recover.from_snapshot_ms"] = metric{Value: rec.p(50) / 1000, Unit: "ms", N: 1}
	if reopened != nil {
		keep(reopened.Close())
	}

	// In-memory rungs: the commit path without a log, and each commit-path
	// subscriber as the difference between two hand-wired systems.
	base, err := wire(false, false, false)
	keep(err)
	withAudit, err := wire(true, false, false)
	keep(err)
	withSearch, err := wire(false, true, false)
	keep(err)
	withTasks, err := wire(false, false, true)
	keep(err)
	if firstErr != nil {
		return nil, firstErr
	}
	commit := tr.rung("store.commit", rungCalls, func(i int) { keep(insertRung(base.s, i)) })
	p50("store.commit_us", commit)
	out["wal.durable_commit_us"] = metric{Value: durable.p(50) - commit.p(50), Unit: "us", N: durable.n()}
	// The systems take turns, call by call, so that heap growth and
	// whatever else drifts during the rung is the same on both sides of
	// each difference.
	var create, audited, searched, plain, tasked sample
	for i := 0; i < rungCalls; i++ {
		create.add(us(tr.timed("model.create_sample", func() { keep(base.createSample()) })))
		audited.add(us(tr.timed("fanout.audit", func() { keep(withAudit.createSample()) })))
		searched.add(us(tr.timed("fanout.search", func() { keep(withSearch.createSample()) })))
		if i%4 == 0 {
			plain.add(us(tr.timed("fanout.tasks.off", func() { keep(base.createAnnotation()) })))
			tasked.add(us(tr.timed("fanout.tasks", func() { keep(withTasks.createAnnotation()) })))
		}
	}
	p50("model.create_sample_us", &create)
	out["fanout.audit_us"] = metric{Value: audited.p(50) - create.p(50), Unit: "us", N: audited.n()}
	out["fanout.search_us"] = metric{Value: searched.p(50) - create.p(50), Unit: "us", N: searched.n()}
	out["fanout.tasks_us"] = metric{Value: tasked.p(50) - plain.p(50), Unit: "us", N: tasked.n()}
	return out, firstErr
}

// filterPreds turns a stream's encoded filter into the equality
// predicates the portal builds from it.
func filterPreds(filter string) ([]store.Pred, error) {
	vals, err := url.ParseQuery(filter)
	if err != nil {
		return nil, err
	}
	var preds []store.Pred
	for name, v := range vals {
		if name == "project" {
			id, err := strconv.ParseInt(v[0], 10, 64)
			if err != nil {
				return nil, err
			}
			preds = append(preds, store.Eq(name, id))
		} else {
			preds = append(preds, store.Eq(name, v[0]))
		}
	}
	return preds, nil
}
