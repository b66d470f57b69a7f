package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/store"
)

// plan sizes one run. The benchmark always runs standardPlan; only the
// smoke test shrinks it.
type plan struct {
	Seed  int64
	Conns int
	// Warm and Window are the unrecorded and the measured part of the
	// open-loop schedule; Closed is the closed-loop segment after it.
	Warm, Window, Closed time.Duration
	// Slice cuts the window into equal parts. Each gated number of the
	// window is computed per slice and the median over the slices is what
	// is reported: a collection cycle of a server or a stall of the virtual
	// machine lasts a fraction of a second, and the median over slices
	// leaves out those that cover less than half of them.
	Slice time.Duration
	// Setups, Restarts and CatchUps are how often the short one-shot
	// timings are repeated for a median. A fresh follower is started fewer
	// than CatchUps times once the catch-ups have taken CatchUpBudget
	// together: after a write-heavy window one catch-up replays and fsyncs
	// thousands of frames and is long enough to be steady on its own.
	Setups, Restarts, CatchUps int
	CatchUpBudget              time.Duration
	// The generator-health limits fail a run whose numbers would describe
	// the generator rather than the server; 0 leaves a limit unchecked.
	// LagLimitMS bounds the 99th-percentile dispatch delay. LagShare bounds
	// the delay's share of each gated latency quantile (median delay over
	// p50_ms, 90th-percentile delay over p90_ms): the delay is added to the
	// latency one for one, so this is how much of the headline is the
	// generator's. BusyShare bounds how busy the workers kept the
	// generator's CPUs in the window: workers that share a CPU wait for
	// each other in proportion to it.
	LagLimitMS, LagShare, BusyShare float64
	// Sizes of the trace run: scripted requests per closed-loop phase,
	// requests replayed straight into the handler, calls per replay rung,
	// and the open-loop segment behind the generator-health numbers.
	Traced, Direct, RungCalls int
	TraceWindow               time.Duration
}

// runSeconds is the length of the measured window, and run_seconds in
// BENCHMARK.json.
const runSeconds = 10

func standardPlan(seed int64, conns int) plan {
	const window = runSeconds * time.Second
	return plan{
		Seed: seed, Conns: conns,
		Warm: time.Second, Window: window, Closed: window / 2,
		Slice:  time.Second,
		Setups: 3, Restarts: 7, CatchUps: 5, CatchUpBudget: 3 * time.Second,
		LagLimitMS: 1.0, LagShare: 0.25, BusyShare: 0.5,
		Traced: 3000, Direct: 1000, RungCalls: 2000, TraceWindow: 3 * time.Second,
	}
}

// smokePlan is the smallest run that still passes through every phase.
func smokePlan() plan {
	return plan{
		Seed: 1, Conns: 1,
		Warm: 200 * time.Millisecond, Window: time.Second, Closed: 300 * time.Millisecond,
		Slice:  500 * time.Millisecond,
		Setups: 1, Restarts: 1, CatchUps: 1,
		Traced: 200, Direct: 50, RungCalls: 40, TraceWindow: time.Second,
	}
}

// metric is one reported number. N is the count of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// runResult is everything one run reports; -record appends it to a file
// and -compare reads such files back.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	ScriptSHA string            `json:"script_sha"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds numbers printed for the reader but not gated: per-class
	// latencies, the resolved tail percentile, generator health.
	Info     map[string]metric `json:"info,omitempty"`
	Failures []string          `json:"failures,omitempty"`
}

func (r *runResult) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

func (r *runResult) info(name string, v float64, unit string, n int) {
	r.Info[name] = metric{Value: v, Unit: unit, N: n}
}

// deployment is one set-up system: the server children of a run, the
// population they hold and the sessions opened on them.
type deployment struct {
	pop      *population
	primary  *child
	follower *child // nil unless the workload reads from a replica
	targets  []*target
}

func (d *deployment) servers() []*child {
	if d.follower != nil {
		return []*child{d.primary, d.follower}
	}
	return []*child{d.primary}
}

func (d *deployment) teardown() {
	for _, c := range d.servers() {
		c.kill()
		c.closeLog()
	}
}

// setUp loads the seeded population into a fresh data directory through
// model -> store -> WAL in this process, then boots the real binary on it,
// waits for /readyz, opens the sessions and runs one search so the lazily
// built index exists. This is everything setup_s times; the binary build
// is not part of it.
func setUp(bin, dir string, wl workload, seed int64) (*deployment, error) {
	sys, err := core.New(core.Options{DataDir: dir, Sync: store.SyncAlways, DisableSearch: true})
	if err != nil {
		return nil, err
	}
	pop, err := loadPopulation(sys, wl.Scale, seed)
	if err == nil && wl.Replica {
		// Recovery on this workload is a snapshot plus the WAL tail the
		// run appends, the shape a long-lived deployment has.
		err = sys.Store.Snapshot()
	}
	if cerr := sys.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	d := &deployment{pop: pop}
	fail := func(err error) (*deployment, error) {
		d.teardown()
		return nil, err
	}
	if d.primary, err = startPrimary(bin, dir); err != nil {
		return nil, err
	}
	if err := d.primary.waitReady(); err != nil {
		return fail(err)
	}
	if wl.Replica {
		if d.follower, err = startFollower(bin, dir+"-follower", d.primary); err != nil {
			return fail(err)
		}
		st, err := d.primary.replication()
		if err != nil {
			return fail(err)
		}
		if err := d.follower.waitCaughtUp(st.CommitSeq); err != nil {
			return fail(err)
		}
	}
	for _, c := range d.servers() {
		t := &target{addr: c.addr}
		if err := t.login(pop); err != nil {
			return fail(err)
		}
		d.targets = append(d.targets, t)
	}
	status, body, err := probe(d.primary.addr, "/api/search?q=sample-00001", d.targets[0].tokens[0])
	if err != nil || status != http.StatusOK {
		return fail(fmt.Errorf("first search: status %d, err %v: %.120s", status, err, body))
	}
	return d, nil
}

// merge folds the workers' recorders of one phase into one.
func merge(recs []*recorder) *recorder {
	out := &recorder{}
	for _, r := range recs {
		out.attempted += r.attempted
		out.completed += r.completed
		out.failed += r.failed
		out.late += r.late
		out.cond += r.cond
		out.notModified += r.notModified
		out.readBytes += r.readBytes
		out.refused += r.refused
		out.reqBytes += r.reqBytes
		for c := range r.byClass {
			out.byClass[c].v = append(out.byClass[c].v, r.byClass[c].v...)
		}
		for o := range r.byOp {
			out.byOp[o].v = append(out.byOp[o].v, r.byOp[o].v...)
		}
		out.lag.v = append(out.lag.v, r.lag.v...)
		for i := range r.bySlice {
			if len(out.bySlice) <= i {
				out.bySlice = append(out.bySlice, sample{})
			}
			out.bySlice[i].v = append(out.bySlice[i].v, r.bySlice[i].v...)
		}
		out.acks = append(out.acks, r.acks...)
		out.msgs = append(out.msgs, r.msgs...)
	}
	return out
}

// phases drives the three load phases of a run against a set of targets:
// warm-up and open-loop window on one seeded schedule, then the
// closed-loop segment on the same mix. The window is cut into slices of
// pl.Slice; atSlice runs at every slice boundary, the window's start and
// end included, for the caller's CPU readings.
type phases struct {
	warm, window, closed *recorder
	closedRPS            float64
	genCPU               time.Duration // this process's user+system CPU over the window
	sha                  string
}

func drive(pop *population, wl workload, pl plan, targets []*target,
	window, closed time.Duration, atSlice func(i int)) (*phases, error) {
	seed, conns, warmUp := pl.Seed, pl.Conns, pl.Warm
	// One sleeper per worker and one for this goroutine.
	sleepers := make([]*sleeper, conns+1)
	for i := range sleepers {
		sl, err := newSleeper()
		if err != nil {
			return nil, err
		}
		defer sl.close()
		sleepers[i] = sl
	}
	sched := newScripter(pop, wl, seed*1000003+1, fmt.Sprintf("%d-o", seed), allUsers()).
		schedule(wl.Rate, warmUp+window)
	perWorker := make([][]request, conns)
	for _, rq := range sched {
		w := rq.User % conns
		perWorker[w] = append(perWorker[w], rq)
	}
	workers := make([]*worker, conns)
	warmRecs, winRecs, closedRecs := make([]*recorder, conns), make([]*recorder, conns), make([]*recorder, conns)
	for i := range workers {
		workers[i] = newWorker(i, pop, targets, wl.Replica, nil)
		warmRecs[i], winRecs[i], closedRecs[i] = &recorder{}, &recorder{}, &recorder{}
	}
	defer func() {
		for _, w := range workers {
			w.close()
		}
	}()

	t0 := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i, w := range workers {
		reqs := perWorker[i]
		split := sort.Search(len(reqs), func(j int) bool { return reqs[j].Due >= warmUp })
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.rec = warmRecs[i]
			w.runOpen(sleepers[i], reqs[:split], t0, 0, 0)
			w.rec = winRecs[i]
			w.runOpen(sleepers[i], reqs[split:], t0, warmUp, pl.Slice)
		}()
	}
	sleepers[conns].until(t0.Add(warmUp))
	atSlice(0)
	genCPU := selfCPU()
	for i, n := 1, int(window/pl.Slice); i <= n; i++ {
		sleepers[conns].until(t0.Add(warmUp + time.Duration(i)*pl.Slice))
		if i == n {
			genCPU = selfCPU() - genCPU
		}
		atSlice(i)
	}
	wg.Wait()

	ph := &phases{warm: merge(warmRecs), window: merge(winRecs), genCPU: genCPU, sha: scriptSHA(sched)}
	if closed > 0 {
		start := time.Now()
		deadline := start.Add(closed)
		done := make([]int, conns)
		for i, w := range workers {
			s := newScripter(pop, wl, seed*1000003+100+int64(i), fmt.Sprintf("%d-c%d", seed, i), usersOf(i, conns))
			w.rec = closedRecs[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				done[i] = w.runClosed(s, deadline)
			}()
		}
		wg.Wait()
		total := 0
		for _, n := range done {
			total += n
		}
		ph.closedRPS = float64(total) / time.Since(start).Seconds()
	}
	ph.closed = merge(closedRecs)
	return ph, nil
}

// drift is the median latency of the second half of the window's slices
// over that of the first half, and the size of the second-half sample; a
// window too short to halve yields 0, 0.
func (r *recorder) drift() (float64, int) {
	var halves [2]sample
	for i := range r.bySlice {
		h := &halves[i*2/len(r.bySlice)]
		h.v = append(h.v, r.bySlice[i].v...)
	}
	if halves[0].n() == 0 || halves[1].n() == 0 {
		return 0, 0
	}
	return halves[1].p(50) / halves[0].p(50), halves[1].n()
}

// selfCPU is the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checkLedger reads back, as the admin, everything created since the
// load and returns the acked writes that are missing or changed, plus any
// id acked twice.
func checkLedger(d *deployment, acks []acked) (missing []string, err error) {
	c := &conn{addr: d.primary.addr}
	defer c.close()
	token, err := c.login(d.pop.Users[0].Login)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	listed := func(kind string, from int64) (map[int64]string, error) {
		names := map[int64]string{}
		for from != 0 {
			path := fmt.Sprintf("/api/browse/%s?limit=500&from=%d", kind, from)
			status, _, data, err := c.roundTrip("GET", path, token, "", "", "")
			if err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("ledger: %s: status %d, err %v", path, status, err)
			}
			var page struct {
				Items []struct {
					ID   int64  `json:"id"`
					Name string `json:"name"`
				} `json:"items"`
				Next int64 `json:"next"`
			}
			if err := json.Unmarshal(data, &page); err != nil {
				return nil, fmt.Errorf("ledger: %s: %v", path, err)
			}
			for _, it := range page.Items {
				names[it.ID] = it.Name
			}
			from = page.Next
		}
		return names, nil
	}
	samples, err := listed(model.KindSample, d.pop.LastSample+1)
	if err != nil {
		return nil, err
	}
	extracts, err := listed(model.KindExtract, d.pop.LastExtract+1)
	if err != nil {
		return nil, err
	}
	terms := map[int64]string{}
	status, _, data, err := c.roundTrip("GET", "/api/annotations?vocabulary="+model.VocabTreatment, token, "", "", "")
	var listedTerms []struct {
		ID    int64
		Value string
	}
	if err != nil || status != http.StatusOK || json.Unmarshal(data, &listedTerms) != nil {
		return nil, fmt.Errorf("ledger: annotations: status %d, err %v", status, err)
	}
	for _, t := range listedTerms {
		terms[t.ID] = t.Value
	}
	found := map[opKind]map[int64]string{
		opCreateSample: samples, opCreateExtract: extracts, opCreateAnnotation: terms,
	}
	seen := map[[2]int64]bool{}
	for _, a := range acks {
		have := found[a.Op]
		if have[a.ID] != a.Name {
			missing = append(missing, fmt.Sprintf("%s %d %q acked, found %q", opNames[a.Op], a.ID, a.Name, have[a.ID]))
		}
		key := [2]int64{int64(a.Op), a.ID}
		if seen[key] {
			missing = append(missing, fmt.Sprintf("%s id %d acked twice", opNames[a.Op], a.ID))
		}
		seen[key] = true
	}
	return missing, nil
}

// runEndToEnd measures one workload against the real binary and returns
// every end-to-end metric.
func runEndToEnd(bin, root string, wl workload, pl plan, log io.Writer) (_ *runResult, err error) {
	seed := pl.Seed
	res := &runResult{Workload: wl.Name, Seed: seed, Seconds: int(pl.Window / time.Second),
		Metrics: map[string]metric{}, Info: map[string]metric{}}
	work, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		// A run that broke leaves its data directories and server logs
		// behind for the post-mortem.
		if err == nil {
			os.RemoveAll(work)
		}
	}()

	// Set up several times and report the median; the last deployment
	// serves the run.
	var d *deployment
	var setups []float64
	for i := 0; i < pl.Setups; i++ {
		if d != nil {
			d.teardown()
		}
		start := time.Now()
		d, err = setUp(bin, filepath.Join(work, "data"+strconv.Itoa(i)), wl, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.teardown()
	runtime.GC() // the load's garbage should not be collected inside the window
	res.set("setup_s", median(setups), "s", len(setups))
	fmt.Fprintf(log, "population: scale %.2f, %d rows, %d bench users; set-ups %.3f s\n",
		wl.Scale, d.pop.Rows, len(d.pop.Users), setups)

	// The servers' CPU seconds and the time the host stole from this
	// machine, read at each slice boundary.
	slices := int(pl.Window / pl.Slice)
	cpu, stolen := make([]float64, slices+1), make([]float64, slices+1)
	var cpuErr error
	ph, err := drive(d.pop, wl, pl, d.targets, pl.Window, pl.Closed, func(i int) {
		st, err := stolenSeconds()
		if err != nil {
			cpuErr = err
		}
		stolen[i] = st
		for _, c := range d.servers() {
			s, err := c.cpuSeconds()
			if err != nil {
				cpuErr = err
			}
			cpu[i] += s
		}
	})
	if err != nil {
		return nil, err
	}
	if cpuErr != nil {
		return nil, cpuErr
	}
	res.ScriptSHA = ph.sha
	fmt.Fprintf(log, "script_sha %s (%d scheduled requests)\n", ph.sha, ph.warm.attempted+ph.window.attempted)

	win := ph.window
	all := win.all()
	if all.n() == 0 {
		return nil, fmt.Errorf("no request completed in the window: %v", win.msgs)
	}
	var p50s, p90s, cpus []float64
	for i := range win.bySlice {
		if sl := &win.bySlice[i]; sl.n() > 0 {
			p50s, p90s = append(p50s, sl.p(50)), append(p90s, sl.p(90))
			cpus = append(cpus, (cpu[i+1]-cpu[i])*1000/float64(sl.n()))
		}
	}
	res.set("p50_ms", median(p50s), "ms", all.n())
	res.set("p90_ms", median(p90s), "ms", all.n())
	res.info("window_p50_ms", all.p(50), "ms", all.n())
	res.info("window_p90_ms", all.p(90), "ms", all.n())
	res.info("p99_ms", all.p(99), "ms", all.n()) // too noisy on two cores to gate; see README
	res.set("saturation_rps", ph.closedRPS, "1/s", ph.closed.completed)
	res.set("cpu_ms_per_req", median(cpus), "ms", win.completed)
	res.info("window_cpu_ms_per_req", (cpu[slices]-cpu[0])*1000/float64(win.completed), "ms", win.completed)
	fmt.Fprintf(log, "slices: p50_ms %.3f\nslices: p90_ms %.3f\nslices: cpu_ms_per_req %.3f\n", p50s, p90s, cpus)
	// The primary's peak only: a follower's peak is set by how the garbage
	// of its snapshot load happened to be collected, and is printed ungated.
	rss, err := d.primary.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("server_rss_mb", rss, "MB", 1)
	if d.follower != nil {
		mb, err := d.follower.peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.info("follower_rss_mb", mb, "MB", 1)
	}

	if top := highestResolved(all.n()); top > 99 {
		res.info(fmt.Sprintf("p%v_ms", top), all.p(top), "ms", all.n())
	}
	for c := range win.byClass {
		if s := &win.byClass[c]; s.n() > 0 {
			res.info(classNames[c]+"_p50_ms", s.p(50), "ms", s.n())
			res.info(classNames[c]+"_p99_ms", s.p(99), "ms", s.n())
		}
	}
	for o := range win.byOp {
		if s := &win.byOp[o]; s.n() > 0 {
			res.info("service_p50_us."+opNames[o], s.p(50), "us", s.n())
			res.info("service_p99_us."+opNames[o], s.p(99), "us", s.n())
		}
	}
	busy := ph.genCPU.Seconds() / pl.Window.Seconds() / float64(runtime.GOMAXPROCS(0))
	res.info("gen.lag_p50_ms", win.lag.p(50), "ms", win.lag.n())
	res.info("gen.lag_p90_ms", win.lag.p(90), "ms", win.lag.n())
	res.info("gen.lag_p99_ms", win.lag.p(99), "ms", win.lag.n())
	res.info("gen.busy_share", busy, "ratio", 1)
	res.info("host.steal_share", (stolen[slices]-stolen[0])/pl.Window.Seconds()/float64(runtime.NumCPU()), "ratio", 1)
	res.info("gen.late_ratio", float64(win.late)/float64(win.attempted), "ratio", win.attempted)
	if ratio, n := win.drift(); n > 0 {
		res.info("gen.drift_ratio", ratio, "ratio", n)
	}
	if win.cond > 0 {
		res.info("etag_304_ratio", float64(win.notModified)/float64(win.cond), "ratio", win.cond)
	}

	// Restart the primary from kill -9 and check, each time, that every
	// acked write is still there.
	acks := append(append(append([]acked(nil), ph.warm.acks...), win.acks...), ph.closed.acks...)
	var recovers []float64
	var lost []string
	for i := 0; i < pl.Restarts; i++ {
		d.primary.kill()
		start := time.Now()
		if err := d.primary.start(); err != nil {
			return nil, err
		}
		if err := d.primary.waitReady(); err != nil {
			return nil, fmt.Errorf("restart %d: %w", i+1, err)
		}
		recovers = append(recovers, time.Since(start).Seconds())
		missing, err := checkLedger(d, acks)
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i+1, err)
		}
		lost = append(lost, missing...)
	}
	res.set("recover_s", median(recovers), "s", len(recovers))

	// Start empty followers and time them to lag 0.
	head, err := d.primary.replication()
	if err != nil {
		return nil, err
	}
	var catches []float64
	catchStart := time.Now()
	for i := 0; i < pl.CatchUps && (i == 0 || time.Since(catchStart) < pl.CatchUpBudget); i++ {
		start := time.Now()
		f, err := startFollower(bin, filepath.Join(work, "fresh"+strconv.Itoa(i)), d.primary)
		if err != nil {
			return nil, err
		}
		err = f.waitCaughtUp(head.CommitSeq)
		catches = append(catches, time.Since(start).Seconds())
		f.kill()
		f.closeLog()
		if err != nil {
			return nil, fmt.Errorf("catch-up %d: %w", i+1, err)
		}
	}
	res.set("catchup_s", median(catches), "s", len(catches))
	fmt.Fprintf(log, "restarts %.3f s; catch-ups %.3f s\n", recovers, catches)

	res.tally(lost, ph.warm, win, ph.closed)
	res.info("fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
	res.info("acked_writes", float64(len(acks)), "count", len(acks))
	unhealthy := func(what string, v, limit float64) {
		if limit > 0 && v > limit {
			res.Failures = append(res.Failures, fmt.Sprintf("generator unhealthy: %s %.3f > %.3f", what, v, limit))
		}
	}
	unhealthy("gen.lag_p99_ms", win.lag.p(99), pl.LagLimitMS)
	unhealthy("gen.lag_p50_ms / p50_ms", win.lag.p(50)/all.p(50), pl.LagShare)
	unhealthy("gen.lag_p90_ms / p90_ms", win.lag.p(90)/all.p(90), pl.LagShare)
	unhealthy("gen.busy_share", busy, pl.BusyShare)
	res.Correct = len(res.Failures) == 0
	return res, nil
}

// tally adds up what the phases attempted and failed, counts every lost
// acked write as one more failure, and checks that no request went
// unaccounted for.
func (r *runResult) tally(lost []string, recs ...*recorder) {
	for _, rec := range recs {
		r.Attempted += rec.attempted
		r.Failed += rec.failed
		r.Failures = append(r.Failures, rec.msgs...)
		if rec.attempted != rec.completed+rec.failed {
			r.Failures = append(r.Failures, fmt.Sprintf("attempted %d != completed %d + failed %d", rec.attempted, rec.completed, rec.failed))
		}
	}
	r.Failed += len(lost)
	r.Failures = append(r.Failures, lost...)
}
