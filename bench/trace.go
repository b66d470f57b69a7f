package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/bench/benchfs"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/model"
	"repro/internal/portal"
	"repro/internal/store"
)

// The trace run prices the layers from outside the program: the same
// layers the binary wires are wired in this process, and every span is
// recorded in this directory's files, around a call into a layer's public
// functions or through the store.FS seam. One client, closed loop, a fixed
// number of requests from the seeded script, so counts repeat exactly.

// span is one timed interval: a request as the client saw it, the portal's
// share of it, or one replayed call into a layer.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// traceRec keeps spans in memory until the run ends.
type traceRec struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	ops    map[uint64]opKind // request id -> op, for per-op handler times
	nextID uint64
}

func newTraceRec() *traceRec {
	return &traceRec{t0: time.Now(), ops: make(map[uint64]opKind), nextID: 1 << 62}
}

func (t *traceRec) add(id, parent, req uint64, name string, start, end time.Time) {
	t.mu.Lock()
	if id == 0 {
		t.nextID++
		id = t.nextID
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// clientSpan records the root span of a request; it carries the request
// id as its span id.
func (t *traceRec) clientSpan(reqID uint64, op opKind, start, end time.Time) {
	t.add(reqID, 0, reqID, "client", start, end)
	t.mu.Lock()
	t.ops[reqID] = op
	t.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, at), min(k.End, s.End)
			if to > from {
				covered += to - from
				at = to
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// spanStats is the traced phase's client and portal spans joined by
// request id: microseconds per class and per op.
type spanStats struct {
	netSelf, client, handlerClass [numClasses]sample
	handler, netOp, clientOp      [numOps]sample
}

func (t *traceRec) join() *spanStats {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	portalOf := map[uint64]span{}
	for _, s := range spans {
		if s.Name == "portal" {
			portalOf[s.Req] = s
		}
	}
	st := &spanStats{}
	for _, s := range spans {
		p, ok := portalOf[s.Req]
		if s.Name != "client" || !ok {
			continue
		}
		op := t.ops[s.Req]
		cl := op.class()
		whole, inPortal := us(time.Duration(s.End-s.Start)), us(time.Duration(p.End-p.Start))
		st.netSelf[cl].add(us(self[s.ID]))
		st.client[cl].add(whole)
		st.handlerClass[cl].add(inPortal)
		st.handler[op].add(inPortal)
		st.netOp[op].add(us(self[s.ID]))
		st.clientOp[op].add(whole)
	}
	return st
}

// tracedHandler is the benchmark-owned wrapper around the portal: the span
// around ServeHTTP is the portal layer (and everything below it) as seen
// from outside.
type tracedHandler struct {
	next http.Handler
	tr   *traceRec
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, _ := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64)
	start := time.Now()
	h.next.ServeHTTP(w, r)
	if id != 0 {
		h.tr.add(0, id, id, "portal", start, time.Now())
	}
}

// serve puts a handler on a loopback listener with the timeouts
// cmd/bfabric configures, and returns its address and a shutdown function.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 30 * time.Second,
		WriteTimeout: 60 * time.Second, IdleTimeout: 2 * time.Minute}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // always http.ErrServerClosed after Close
		close(done)
	}()
	return ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// timed records one call into a layer as a span and returns how long it
// took.
func (t *traceRec) timed(name string, call func()) time.Duration {
	start := time.Now()
	call()
	end := time.Now()
	t.add(0, 0, 0, name, start, end)
	return end.Sub(start)
}

// rung replays one call into a layer n times, each call a span, and
// returns the per-call times in microseconds.
func (t *traceRec) rung(name string, n int, call func(i int)) *sample {
	s := &sample{}
	for i := 0; i < n; i++ {
		s.add(us(t.timed(name, func() { call(i) })))
	}
	return s
}

// runScripted sends n scripted requests per target from closed-loop
// clients that take turns, one request each, and returns what each
// recorded plus the hash of the script. Every client draws the same
// operations (only the names it coins differ), and because they alternate,
// whatever the run does to the store it does to all of them alike.
func runScripted(pop *population, wl workload, seed int64, n int, tr *traceRec, targets ...*target) ([]*recorder, string) {
	workers := make([]*worker, len(targets))
	scripts := make([][]request, len(targets))
	for i, t := range targets {
		var wtr *traceRec
		if i == 0 {
			wtr = tr // only the first client is traced
		}
		workers[i] = newWorker(i, pop, []*target{t}, false, wtr)
		defer workers[i].close()
		s := newScripter(pop, wl, seed*1000003+7, fmt.Sprintf("%d-t%d", seed, i), allUsers())
		scripts[i] = make([]request, n)
		for j := range scripts[i] {
			scripts[i][j] = s.next()
		}
	}
	for j := 0; j < n; j++ {
		// Whoever repeats an operation right after another client finds
		// the server's caches warm, so the clients also take turns at
		// going first.
		for k := range workers {
			i := (j + k) % len(workers)
			workers[i].exec(&scripts[i][j], time.Time{}, time.Time{}, -1)
		}
	}
	recs := make([]*recorder, len(workers))
	for i, w := range workers {
		recs[i] = w.rec
	}
	return recs, scriptSHA(scripts[0])
}

// runTrace produces every per-layer metric for one workload.
func runTrace(root string, wl workload, pl plan, log io.Writer) (*runResult, error) {
	seed := pl.Seed
	wl.Replica = false // one in-process server answers reads and writes alike
	res := &runResult{Workload: wl.Name, Seed: seed, Trace: true,
		Metrics: map[string]metric{}, Info: map[string]metric{}}
	work, err := os.MkdirTemp(root, "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	dir := filepath.Join(work, "data")
	tr := newTraceRec()
	fs := benchfs.New()

	// Load through the counting filesystem, close, and recover: the first
	// two recovery numbers come from opening what the load left.
	loader, err := core.New(core.Options{DataDir: dir, Sync: store.SyncAlways, DisableSearch: true, FS: fs})
	if err != nil {
		return nil, err
	}
	pop, err := loadPopulation(loader, wl.Scale, seed)
	if cerr := loader.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	start := time.Now()
	st, err := store.Open(dir, store.DurabilityOptions{Sync: store.SyncAlways, FS: fs})
	if err != nil {
		return nil, err
	}
	opened := time.Now()
	tr.add(0, 0, 0, "recover.from_wal", start, opened)
	sys, err := core.NewWithStore(st, core.Options{})
	if err != nil {
		st.Close()
		return nil, err
	}
	defer sys.Close() // closing twice is harmless; the success path closes explicitly
	sys.Search.Flush()
	indexed := time.Now()
	tr.add(0, 0, 0, "recover.reindex", opened, indexed)
	res.set("recover.from_wal_ms", ms(opened.Sub(start)), "ms", 1)
	res.set("recover.reindex_ms", ms(indexed.Sub(opened)), "ms", 1)
	fmt.Fprintf(log, "population: scale %.2f, %d rows, %d bench users\n", wl.Scale, pop.Rows, len(pop.Users))

	bare := portal.NewWithConfig(sys, portal.Config{})
	traced := tracedHandler{next: bare, tr: tr}
	bareAddr, stopBare, err := serve(bare)
	if err != nil {
		return nil, err
	}
	defer stopBare()
	tracedAddr, stopTraced, err := serve(traced)
	if err != nil {
		return nil, err
	}
	defer stopTraced()
	bareTarget, tracedTarget := &target{addr: bareAddr}, &target{addr: tracedAddr}
	for _, t := range []*target{bareTarget, tracedTarget} {
		if err := t.login(pop); err != nil {
			return nil, err
		}
	}
	directTarget := &target{handler: bare, tokens: bareTarget.tokens}

	// A traced and an untraced client take turns on the same script: the
	// ratio of their medians is what tracing costs, and the counters read
	// at the layer boundaries cover the writes of both.
	counts, err := startCounting(sys, fs, 2*pl.Traced)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, sha := runScripted(pop, wl, seed, pl.Traced, tr, tracedTarget, bareTarget)
	runtime.ReadMemStats(&after)
	counts.stop()
	rec, untraced := recs[0], recs[1]
	res.ScriptSHA = sha
	fmt.Fprintf(log, "script_sha %s (%d scripted requests per client, closed loop)\n", sha, pl.Traced)

	writes := len(rec.acks) + len(untraced.acks)
	perWrite := func(name string, total float64, unit string) {
		v := 0.0
		if writes > 0 {
			v = total / float64(writes)
		}
		res.set(name, v, unit, writes)
	}
	perWrite("store.commits_per_write", float64(counts.commits), "count")
	perWrite("store.commit_bytes_per_write", float64(counts.commitBytes), "B")
	perWrite("events.per_write", float64(counts.events), "count")
	perWrite("wal.fsyncs_per_write", float64(counts.fs.Sync.N), "count")
	perWrite("wal.bytes_per_write", float64(counts.fs.Write.Bytes), "B")
	amp := 0.0
	if rec.reqBytes > 0 {
		amp = float64(counts.fs.Write.Bytes) / float64(rec.reqBytes+untraced.reqBytes)
	}
	res.set("disk_write_amp", amp, "ratio", writes)
	syncs, wrote := durations(counts.fs.Sync.Took), durations(counts.fs.Write.Took)
	res.set("wal.fsync_us.p50", syncs.p(50), "us", syncs.n())
	res.set("wal.fsync_us.p99", syncs.p(99), "us", syncs.n())
	res.set("wal.write_us.p50", wrote.p(50), "us", wrote.n())
	res.set("proc.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, "ms", int(after.NumGC-before.NumGC))

	sp := tr.join()
	netSelf, client, handlerClass := &sp.netSelf, &sp.client, &sp.handlerClass
	handler, netOp, clientOp := &sp.handler, &sp.netOp, &sp.clientOp
	var allNet sample
	for c := range netSelf {
		allNet.v = append(allNet.v, netSelf[c].v...)
	}
	res.set("net.self_us", allNet.p(50), "us", allNet.n())
	for o := range handler {
		res.set("portal.handler_us."+opNames[o], handler[o].p(50), "us", handler[o].n())
	}
	for c := range client {
		res.set("client."+classNames[c]+"_p50_us", client[c].p(50), "us", client[c].n())
	}
	reads := rec.byClass[classRead].n()
	bytesPerRead := 0.0
	if reads > 0 {
		bytesPerRead = float64(rec.readBytes) / float64(reads)
	}
	res.set("portal.resp_bytes_per_read", bytesPerRead, "B", reads)
	ratio := 0.0
	if rec.cond > 0 {
		ratio = float64(rec.notModified) / float64(rec.cond)
	}
	res.set("portal.etag_304_ratio", ratio, "ratio", rec.cond)
	res.set("portal.refused_503", float64(rec.refused+untraced.refused), "count", rec.attempted+untraced.attempted)
	tracedAll, untracedAll := rec.all(), untraced.all()
	overhead := 0.0
	if untracedAll.n() > 0 && untracedAll.p(50) > 0 {
		overhead = tracedAll.p(50) / untracedAll.p(50)
	}
	res.set("trace.overhead_ratio", overhead, "ratio", tracedAll.n())

	// Allocation per request: the same script straight into the handler,
	// no socket and no client in between.
	runtime.GC()
	runtime.ReadMemStats(&before)
	directRecs, _ := runScripted(pop, wl, seed+1, pl.Direct, nil, directTarget)
	directRec := directRecs[0]
	runtime.ReadMemStats(&after)
	res.set("proc.alloc_kb_per_req", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(pl.Direct), "KB", pl.Direct)
	res.set("proc.allocs_per_req", float64(after.Mallocs-before.Mallocs)/float64(pl.Direct), "count", pl.Direct)

	// A short open-loop window for the generator's own health and the
	// tail percentile that is too noisy to gate.
	ph, err := drive(pop, wl, pl, []*target{tracedTarget}, pl.TraceWindow, 0, func(int) {})
	if err != nil {
		return nil, err
	}
	win := ph.window
	all := win.all()
	res.set("p99_ms", all.p(99), "ms", all.n())
	res.set("gen.lag_p99_ms", win.lag.p(99), "ms", win.lag.n())
	res.set("gen.late_ratio", float64(win.late)/float64(max(win.attempted, 1)), "ratio", win.attempted)
	drift, driftN := win.drift()
	res.set("gen.drift_ratio", drift, "ratio", driftN)

	// Crash check: keep only what was fsynced and require every acked
	// write of every phase in what recovers from it.
	recorders := []*recorder{untraced, rec, directRec, ph.warm, win}
	var acks []acked
	for _, r := range recorders {
		acks = append(acks, r.acks...)
	}
	lost, discarded, err := crashCheck(fs, dir, filepath.Join(work, "crash"), acks)
	if err != nil {
		return nil, fmt.Errorf("crash check: %w", err)
	}
	res.set("durability.acked_lost", float64(len(lost)), "count", len(acks))
	res.info("durability.unsynced_bytes_discarded", float64(discarded), "B", 1)

	layers, err := layerRungs(tr, sys, fs, pop, bareTarget.tokens, dir, pl.RungCalls)
	if err != nil {
		return nil, err
	}
	for name, m := range layers {
		res.Metrics[name] = m
	}

	// portal.self: the handler's median minus the replayed rungs below it,
	// weighted by the ops the script actually sent.
	below := func(o opKind) float64 {
		auth := res.Metrics["auth.session_user_us"].Value
		switch o {
		case opBrowsePage:
			return auth + res.Metrics["store.query_page_us"].Value
		case opObject:
			return auth + res.Metrics["store.get_ref_us"].Value
		case opTasks:
			return auth
		case opStats:
			return res.Metrics["model.stats_us"].Value
		case opStatsGroup:
			return res.Metrics["store.agg_us"].Value
		case opCreateSample, opCreateExtract:
			return auth + res.Metrics["model.create_sample_us"].Value + res.Metrics["wal.durable_commit_us"].Value +
				res.Metrics["fanout.audit_us"].Value + res.Metrics["fanout.search_us"].Value
		case opCreateAnnotation:
			return res.Metrics["model.create_sample_us"].Value + res.Metrics["wal.durable_commit_us"].Value +
				res.Metrics["fanout.audit_us"].Value + res.Metrics["fanout.search_us"].Value +
				res.Metrics["fanout.tasks_us"].Value + res.Metrics["vocab.similar_us"].Value
		}
		return 0 // a revalidation answers from the version's seq alone
	}
	var rungs [numClasses]float64
	for c := range rungs {
		n := 0
		for o := opKind(0); o < numOps; o++ {
			if o.class() == class(c) {
				rungs[c] += below(o) * float64(handler[o].n())
				n += handler[o].n()
			}
		}
		if n > 0 {
			rungs[c] /= float64(n)
		}
	}
	res.set("portal.self_us.read", handlerClass[classRead].p(50)-rungs[classRead], "us", handlerClass[classRead].n())
	res.set("portal.self_us.write", handlerClass[classWrite].p(50)-rungs[classWrite], "us", handlerClass[classWrite].n())
	// Reconciliation: the layers' medians against the client span's
	// median, op by op, weighted by how often each op was sent. Within one
	// request the spans add up exactly; the medians differ only as far as
	// medians do not add.
	parts, whole := 0.0, 0.0
	for o := range handler {
		n := float64(handler[o].n())
		parts += n * (netOp[o].p(50) + handler[o].p(50))
		whole += n * clientOp[o].p(50)
	}
	reconcile := 0.0
	if whole > 0 {
		reconcile = parts / whole
	}
	res.set("trace.reconcile_ratio", reconcile, "ratio", allNet.n())

	res.tally(lost, recorders...)
	res.Correct = len(res.Failures) == 0

	dump := filepath.Join(root, fmt.Sprintf("spans-%s-%d.json", wl.Name, seed))
	tr.mu.Lock()
	data, err := json.Marshal(tr.spans)
	tr.mu.Unlock()
	if err == nil {
		err = os.WriteFile(dump, data, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("span dump: %w", err)
	}
	fmt.Fprintf(log, "span dump: %s (%d spans)\n", dump, len(tr.spans))
	return res, nil
}

// durations converts to a microsecond sample.
func durations(ds []time.Duration) *sample {
	s := &sample{}
	for _, d := range ds {
		s.add(us(d))
	}
	return s
}

// counting is the set of counters read at the layer boundaries during the
// traced phase: commits and their WAL payloads, bus events, and what the
// filesystem seam saw.
type counting struct {
	sys         *core.System
	fsys        *benchfs.FS
	sub         *store.CommitSub
	busSub      int
	seq0        uint64
	drained     chan struct{}
	commits     uint64
	commitBytes int64
	events      int64
	eventsMu    sync.Mutex
	fs          benchfs.Stats
}

func startCounting(sys *core.System, fsys *benchfs.FS, commits int) (*counting, error) {
	c := &counting{sys: sys, fsys: fsys, drained: make(chan struct{})}
	// The buffer holds every commit of the traced phase even if the
	// drainer never ran: a full buffer would end the subscription.
	sub, err := sys.Store.SubscribeCommits(2 * commits)
	if err != nil {
		return nil, err
	}
	c.sub, c.seq0 = sub, sub.FromSeq
	go func() {
		for f := range sub.C {
			c.commitBytes += int64(len(f.Payload))
		}
		close(c.drained)
	}()
	c.busSub = sys.Bus.Subscribe("", func(events.Event) error {
		c.eventsMu.Lock()
		c.events++
		c.eventsMu.Unlock()
		return nil
	})
	fsys.Reset()
	return c, nil
}

func (c *counting) stop() {
	c.fs = c.fsys.Stats()
	c.commits = c.sys.Store.CommitSeq() - c.seq0
	c.sys.Bus.Unsubscribe(c.busSub)
	c.sub.Cancel()
	<-c.drained
}

// crashCheck copies the data directory as a power loss would leave it,
// recovers the copy, and returns every acked write that is not in it.
func crashCheck(fsys *benchfs.FS, dir, copyDir string, acks []acked) (lost []string, discarded int64, err error) {
	discarded, err = fsys.CrashCopy(dir, copyDir)
	if err != nil {
		return nil, 0, err
	}
	st, err := store.Open(copyDir, store.DurabilityOptions{Sync: store.SyncOff, SnapshotEvery: -1})
	if err != nil {
		return nil, discarded, err
	}
	defer st.Close()
	table := map[opKind]string{opCreateSample: model.KindSample, opCreateExtract: model.KindExtract, opCreateAnnotation: "annotation"}
	field := map[opKind]string{opCreateSample: "name", opCreateExtract: "name", opCreateAnnotation: "value"}
	err = st.View(func(tx *store.Tx) error {
		for _, a := range acks {
			r, err := tx.GetRef(table[a.Op], a.ID)
			if err != nil || r.String(field[a.Op]) != a.Name {
				lost = append(lost, fmt.Sprintf("%s %d %q acked, lost with the unsynced bytes", opNames[a.Op], a.ID, a.Name))
			}
		}
		return nil
	})
	return lost, discarded, err
}
