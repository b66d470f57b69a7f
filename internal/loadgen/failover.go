package loadgen

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/genload"
	"repro/internal/model"
	"repro/internal/repl"
	"repro/internal/store"
)

// RunFailover executes the failover scenario: a primary with one
// WAL-shipping follower takes the mixed workload for half the run, then
// the primary portal is killed mid-load. The follower is drained to the
// primary's committed head, promoted over HTTP (admin-only POST
// /api/replication/promote — the same path an operator's
// `bfabric-admin promote` takes), and every client re-points and
// re-authenticates against the new primary for the second half.
//
// The scenario is a correctness gate as much as a benchmark: writers are
// restricted to uniquely named sample creations and keep a ledger of
// every 201 the old primary acknowledged; after the run, each acked name
// must exist on the promoted store. Because the drain completes before
// promotion, this controlled failover loses nothing — the report fails
// loudly if it does. The outage itself (kill → drain → promote →
// re-login) is recorded as a single synthetic "switchover" sample, and
// throughput covers the whole window including the outage, so the
// failover/ baseline rows honestly price the interruption.
func RunFailover(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	cfg.Replicas = 0

	sys, err := core.New(core.Options{})
	if err != nil {
		return nil, err
	}
	profile := genload.FGCZJan2010.Scaled(cfg.Scale)
	profile.Seed = cfg.Seed
	start := time.Now()
	if err := genload.Generate(sys, profile); err != nil {
		return nil, fmt.Errorf("loadgen: population: %w", err)
	}
	cfg.logf("population generated at scale %.2f in %v", cfg.Scale, time.Since(start).Round(time.Millisecond))

	users, _, err := preparePool(sys, cfg.Clients+cfg.Writers)
	if err != nil {
		return nil, fmt.Errorf("loadgen: pool: %w", err)
	}
	base, shutPrimary, err := BootServer(sys, cfg.Portal)
	if err != nil {
		return nil, err
	}
	defer func() { _ = shutPrimary() }()
	cfg.logf("primary serving at %s", base)

	// The follower: its own system, wired like the primary's, fed by the
	// shipper, promoted to a fenced primary mid-run.
	shipper := repl.NewServer(sys.Store)
	shipAddr, err := shipper.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer shipper.Close()
	fsys, err := core.NewWithStore(store.New(), core.Options{})
	if err != nil {
		return nil, fmt.Errorf("loadgen: follower: %w", err)
	}
	fsys.Store.SetReplica(true)
	f := repl.NewFollower(fsys.Store, shipAddr, repl.FollowerOptions{})
	f.Start()
	defer f.Close()
	if err := f.WaitForSeq(sys.Store.CommitSeq(), 60*time.Second); err != nil {
		return nil, fmt.Errorf("loadgen: follower catch-up: %w", err)
	}
	pcfg := cfg.Portal
	pcfg.ReplicaStatus = func() any { return f.Report() }
	pcfg.Promote = func() (any, error) {
		prom, err := f.Promote()
		if err != nil {
			return nil, err
		}
		if fsys.Search != nil {
			fsys.Search.ReindexAll()
		}
		return prom, nil
	}
	fbase, shutFollower, err := BootServer(fsys, pcfg)
	if err != nil {
		return nil, err
	}
	defer func() { _ = shutFollower() }()
	cfg.logf("follower serving at %s", fbase)

	transport := &http.Transport{
		MaxIdleConns:        cfg.Clients + cfg.Writers + 8,
		MaxIdleConnsPerHost: cfg.Clients + cfg.Writers + 8,
	}
	defer transport.CloseIdleConnections()
	fails := &failures{}
	workers := make([]*worker, 0, cfg.Clients+cfg.Writers)
	for i := 0; i < cfg.Clients+cfg.Writers; i++ {
		isWriter := i >= cfg.Clients
		w := newWorker(i, isWriter, false, base, transport, users[i], cfg.Timeout, cfg.Seed+int64(i)*7919, fails)
		w.samplesOnly = isWriter
		if err := w.login(); err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		workers = append(workers, w)
	}
	cfg.logf("%d readers + %d writers logged in; phase 1 against the primary for %v",
		cfg.Clients, cfg.Writers, cfg.Duration/2)

	measureStart := time.Now()
	runPhase(workers, time.Now().Add(cfg.Duration/2))

	// The outage: kill the primary portal, drain, promote, re-point.
	swStart := time.Now()
	if err := shutPrimary(); err != nil {
		return nil, fmt.Errorf("loadgen: killing primary portal: %w", err)
	}
	head := sys.Store.CommitSeq()
	if err := f.WaitForSeq(head, 30*time.Second); err != nil {
		return nil, fmt.Errorf("loadgen: draining follower to seq %d: %w", head, err)
	}
	shipper.Close()
	prom, err := promoteHTTP(fbase, users[0], cfg.Timeout)
	if err != nil {
		return nil, err
	}
	for _, w := range workers {
		w.base = fbase
		w.token = ""
		if err := w.login(); err != nil {
			return nil, fmt.Errorf("loadgen: re-login after promotion: %w", err)
		}
	}
	swDur := time.Since(swStart)
	cfg.logf("switchover in %v: promoted %s to epoch %d at seq %d",
		swDur.Round(time.Millisecond), fbase, prom.Epoch, prom.LastApplied)

	cfg.logf("phase 2 against the promoted primary for %v", cfg.Duration/2)
	runPhase(workers, time.Now().Add(cfg.Duration/2))
	elapsed := time.Since(measureStart)

	// The loss ledger: every sample name the old primary acked with 201
	// must exist on the promoted store.
	names := make(map[string]bool)
	if err := fsys.View(func(tx *store.Tx) error {
		rows, err := tx.Query(store.Query{Table: model.KindSample})
		if err != nil {
			return err
		}
		for rows.Next() {
			names[rows.Record().String("name")] = true
		}
		return rows.Err()
	}); err != nil {
		return nil, err
	}
	acked, lost := 0, 0
	for _, w := range workers {
		for _, name := range w.acked {
			acked++
			if !names[name] {
				lost++
				fails.add(opSwitch, "acked write lost across failover: sample "+name)
			}
		}
	}
	cfg.logf("loss ledger: %d acked sample creations, %d lost", acked, lost)
	if acked == 0 {
		fails.add(opSwitch, "no acked writes recorded: the scenario proved nothing")
	}

	// The new primary must identify itself as one, fenced at a higher epoch.
	if err := verifyPromotedRole(fbase, cfg.Timeout); err != nil {
		fails.add(opSwitch, err.Error())
	}

	recs := make([]*recorder, 0, len(workers)+1)
	for _, w := range workers {
		recs = append(recs, w.rec)
	}
	swRec := newRecorder()
	swRec.observe(opSwitch, swDur, false)
	recs = append(recs, swRec)

	report := buildReport(cfg, elapsed, recs, fails)
	report.Failover = true
	if err := shutFollower(); err != nil {
		return nil, fmt.Errorf("loadgen: shutdown: %w", err)
	}
	return report, nil
}

// runPhase drives every worker until the deadline and waits them out.
func runPhase(workers []*worker, deadline time.Time) {
	done := make(chan struct{})
	for _, w := range workers {
		go func(w *worker) {
			defer func() { done <- struct{}{} }()
			w.run(deadline)
		}(w)
	}
	for range workers {
		<-done
	}
}

// promoteHTTP performs the operator's failover action over the wire:
// log the admin in, POST the promote endpoint, return the promotion.
func promoteHTTP(base string, admin poolUser, timeout time.Duration) (repl.Promotion, error) {
	client := &http.Client{Timeout: timeout}
	body, _ := json.Marshal(map[string]string{"Login": admin.login, "Password": admin.password})
	resp, err := client.Post(base+"/api/login", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return repl.Promotion{}, fmt.Errorf("loadgen: admin login: %w", err)
	}
	var tok struct{ Token string }
	err = json.NewDecoder(resp.Body).Decode(&tok)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || tok.Token == "" {
		return repl.Promotion{}, fmt.Errorf("loadgen: admin login: status %d (%v)", resp.StatusCode, err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/api/replication/promote", nil)
	if err != nil {
		return repl.Promotion{}, err
	}
	req.Header.Set("Authorization", "Bearer "+tok.Token)
	resp, err = client.Do(req)
	if err != nil {
		return repl.Promotion{}, fmt.Errorf("loadgen: promote: %w", err)
	}
	var out struct {
		Promotion repl.Promotion `json:"promotion"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		return repl.Promotion{}, fmt.Errorf("loadgen: promote: status %d (%v)", resp.StatusCode, err)
	}
	return out.Promotion, nil
}

// verifyPromotedRole asserts the promoted portal reports itself as a
// primary at an epoch past the original timeline's.
func verifyPromotedRole(base string, timeout time.Duration) error {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(base + "/api/replication")
	if err != nil {
		return fmt.Errorf("replication status after promote: %w", err)
	}
	defer resp.Body.Close()
	var rep struct {
		Role  string `json:"role"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return fmt.Errorf("replication status after promote: %w", err)
	}
	if resp.StatusCode != http.StatusOK || rep.Role != "primary" || rep.Epoch < 2 {
		return fmt.Errorf("promoted node reports role=%q epoch=%d (status %d), want primary at epoch >= 2",
			rep.Role, rep.Epoch, resp.StatusCode)
	}
	return nil
}
