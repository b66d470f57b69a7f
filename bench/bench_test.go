package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// testPopulation loads the smallest useful population into memory.
func testPopulation(t *testing.T, seed int64) *population {
	t.Helper()
	sys, err := core.New(core.Options{DisableSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	pop, err := loadPopulation(sys, 0.02, seed)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestScriptSHAFollowsTheSeed(t *testing.T) {
	sha := func(seed int64) string {
		pop := testPopulation(t, seed)
		wl, _ := findWorkload("mixed")
		return scriptSHA(newScripter(pop, wl, seed, "t", allUsers()).schedule(wl.Rate, time.Second))
	}
	a, again, b := sha(1), sha(1), sha(2)
	if a != again {
		t.Errorf("same seed, different scripts: %s and %s", a, again)
	}
	if a == b {
		t.Errorf("seeds 1 and 2 produced the same script %s", a)
	}
}

func TestMixSharesAreExact(t *testing.T) {
	wl, _ := findWorkload("mixed")
	total, byClass := 0, map[class]int{}
	for _, m := range wl.Mix {
		total += m.w
		byClass[m.op.class()] += m.w
	}
	for cl, want := range map[class]int{classRead: 65, classSearch: 10, classWrite: 25} {
		if got := byClass[cl] * 100; got != want*total {
			t.Errorf("%s share is %d/%d, want %d%%", classNames[cl], byClass[cl], total, want)
		}
	}
}

func TestPercentileArithmetic(t *testing.T) {
	var s []float64
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 99.9: 100, 1: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%v of 1..100 = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	for n, want := range map[int]float64{5: 0, 20: 50, 100: 90, 1000: 99, 19843: 99.9} {
		if got := highestResolved(n); got != want {
			t.Errorf("highest percentile with ten samples beyond it in %d = %v, want %v", n, got, want)
		}
	}
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	if got := quartileSpread(s[:10]); got != 1 {
		t.Errorf("quartile spread of 1..10 = %v, want 1", got)
	}
	// statistics.quantiles([2, 4, 4, 5, 9], n=4) is [3.0, 4.0, 7.0].
	if got := quartileSpread([]float64{9, 4, 2, 5, 4}); got != 1 {
		t.Errorf("quartile spread = %v, want 1", got)
	}
}

// The gated numbers of the window are medians over its slices, so a
// request has to land in the slice of its due time.
func TestOpenLoopFillsTheSliceOfTheDueTime(t *testing.T) {
	pop := testPopulation(t, 1)
	portal := &fakePortal{page: `{"items":[],"next":0,"asOf":7}`, tag: `"v7"`}
	w := newWorker(0, pop, []*target{{handler: portal, tokens: make([]string, len(pop.Users))}}, false, nil)
	sl, err := newSleeper()
	if err != nil {
		t.Fatal(err)
	}
	defer sl.close()
	const warm, slice = 10 * time.Millisecond, 4 * time.Millisecond
	var reqs []request
	for _, due := range []time.Duration{10, 11, 13, 14, 21, 21} {
		reqs = append(reqs, request{Due: due * time.Millisecond, Op: opBrowsePage})
	}
	w.runOpen(sl, reqs, time.Now(), warm, slice)
	var got []int
	for i := range w.rec.bySlice {
		got = append(got, w.rec.bySlice[i].n())
	}
	if want := []int{3, 1, 2}; !slices.Equal(got, want) || w.rec.failed != 0 {
		t.Errorf("requests per slice %v, want %v; failures %v", got, want, w.rec.msgs)
	}
	r := &recorder{bySlice: []sample{{v: []float64{1, 1}}, {v: []float64{1}}, {v: []float64{3}}, {v: []float64{3, 2, 3}}}}
	if ratio, n := r.drift(); ratio != 3 || n != 4 {
		t.Errorf("drift of a window three times slower in its second half = %v over %d, want 3 over 4", ratio, n)
	}
	if ratio, n := (&recorder{}).drift(); ratio != 0 || n != 0 {
		t.Errorf("drift of an empty window = %v over %d", ratio, n)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "portal", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "portal", Start: 50, End: 80}, // overlaps span 2 by 10
		{ID: 4, Parent: 2, Name: "store", Start: 20, End: 30},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 150}, // runs past its parent
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{1: 20, 2: 40, 3: 30, 4: 10, 5: 60} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// fakePortal answers the browse and stats endpoints from canned bodies, so
// a test can hand the worker a response the real portal would never send.
type fakePortal struct {
	page      string // body of every browse page
	tag       string // ETag sent with everything
	always304 bool
}

func (f *fakePortal) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("ETag", f.tag)
	if f.always304 || (r.Header.Get("If-None-Match") != "" && r.Header.Get("If-None-Match") == f.tag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	io.WriteString(w, f.page)
}

func TestValidatorsRejectWhatAFakeHandlerCorrupts(t *testing.T) {
	pop := testPopulation(t, 1)
	tokens := make([]string, len(pop.Users))
	good := `{"items":[{"id":1,"name":"a"},{"id":2,"name":"b"}],"next":3,"asOf":7}`
	cases := []struct {
		name   string
		portal fakePortal
		ops    []opKind
		fails  int
		want   string
	}{
		{"a sound page and its revalidation", fakePortal{page: good, tag: `"v7"`}, []opKind{opBrowsePage, opBrowseRevalidate}, 0, ""},
		{"ids out of order", fakePortal{page: `{"items":[{"id":2,"name":"b"},{"id":1,"name":"a"}],"next":0,"asOf":7}`, tag: `"v7"`},
			[]opKind{opBrowsePage}, 1, "ascending"},
		{"an item without a name", fakePortal{page: `{"items":[{"id":1}],"next":0,"asOf":7}`, tag: `"v7"`}, []opKind{opBrowsePage}, 1, "without name"},
		{"a cursor that stands still", fakePortal{page: `{"items":[{"id":1,"name":"a"}],"next":1,"asOf":7}`, tag: `"v7"`},
			[]opKind{opBrowsePage}, 1, "does not advance"},
		{"no asOf", fakePortal{page: `{"items":[],"next":0}`, tag: `"v7"`}, []opKind{opBrowsePage}, 1, "missing"},
		{"asOf that disagrees with the tag", fakePortal{page: good, tag: `"v9"`}, []opKind{opBrowsePage}, 1, "under tag"},
		{"304 nobody asked for", fakePortal{page: good, tag: `"v7"`, always304: true}, []opKind{opBrowsePage}, 1, "without If-None-Match"},
		{"the next page repeating the last", fakePortal{page: good, tag: `"v7"`}, []opKind{opBrowsePage, opBrowsePage}, 1, "ascending"},
	}
	for _, tc := range cases {
		w := newWorker(0, pop, []*target{{handler: &tc.portal, tokens: tokens}}, false, nil)
		for _, op := range tc.ops {
			w.exec(&request{User: 0, Op: op, Stream: 0}, time.Time{}, time.Time{}, -1)
		}
		if w.rec.failed != tc.fails || w.rec.attempted != w.rec.completed+w.rec.failed {
			t.Errorf("%s: %d attempted, %d completed, %d failed %v; want %d failed",
				tc.name, w.rec.attempted, w.rec.completed, w.rec.failed, w.rec.msgs, tc.fails)
		}
		if tc.fails > 0 && !strings.Contains(strings.Join(w.rec.msgs, "\n"), tc.want) {
			t.Errorf("%s: failure %v does not mention %q", tc.name, w.rec.msgs, tc.want)
		}
	}
}

func TestStale304IsRejected(t *testing.T) {
	// The handler echoes a newer tag on a 304: the page the client holds is
	// not the one the server vouches for.
	stale := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-None-Match") != "" {
			w.Header().Set("ETag", `"v8"`)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("ETag", `"v7"`)
		io.WriteString(w, `{"Users":99,"Projects":1,"Samples":1,"Workunits":1}`)
	})
	pop := testPopulation(t, 1)
	w := newWorker(0, pop, []*target{{handler: stale, tokens: make([]string, len(pop.Users))}}, false, nil)
	w.exec(&request{Op: opStats, Path: "/api/stats"}, time.Time{}, time.Time{}, -1)
	w.exec(&request{Op: opStats, Path: "/api/stats", Cond: true}, time.Time{}, time.Time{}, -1)
	if w.rec.completed != 1 || w.rec.failed != 1 || !strings.Contains(strings.Join(w.rec.msgs, ""), "carries tag") {
		t.Errorf("completed %d, failed %d, %v; want the 304 rejected for its tag", w.rec.completed, w.rec.failed, w.rec.msgs)
	}
}

func TestVersionMayNotGoBackOnAConnection(t *testing.T) {
	seq := 9
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", fmt.Sprintf(`"v%d"`, seq))
		io.WriteString(w, `{"Users":99,"Projects":1,"Samples":1,"Workunits":1}`)
		seq--
	})
	pop := testPopulation(t, 1)
	w := newWorker(0, pop, []*target{{handler: h, tokens: make([]string, len(pop.Users))}}, false, nil)
	for i := 0; i < 2; i++ {
		w.exec(&request{Op: opStats, Path: "/api/stats"}, time.Time{}, time.Time{}, -1)
	}
	if w.rec.failed != 1 || !strings.Contains(strings.Join(w.rec.msgs, ""), "went back") {
		t.Errorf("failed %d, %v; want the second response rejected", w.rec.failed, w.rec.msgs)
	}
}

func TestVerdicts(t *testing.T) {
	spec, _ := specOf("p50_ms")
	steady := []float64{1.00, 1.01, 0.99, 1.00}
	for _, tc := range []struct {
		b    []float64
		want string
	}{
		{[]float64{1.00, 1.02, 0.98, 1.01}, "unchanged"},
		{[]float64{1.40, 1.41, 1.39, 1.40}, "regressed"},
		{[]float64{0.80, 0.81, 0.79, 0.80}, "improved"},
		{[]float64{0.5, 1.0, 1.5, 2.0}, "unresolved"},
	} {
		if _, _, got := verdict(spec, true, steady, tc.b); got != tc.want {
			t.Errorf("verdict on %v = %s, want %s", tc.b, got, tc.want)
		}
	}
	if _, _, got := verdict(metricSpec{}, false, []float64{1}, []float64{1}); got != "same" {
		t.Errorf("ungated equal counts: %s", got)
	}
}

func TestCompareRefusesDifferentInput(t *testing.T) {
	run := func(seed int64, seconds int, sha string) runResult {
		return runResult{Workload: "browse", Seed: seed, Seconds: seconds, ScriptSHA: sha}
	}
	a := []runResult{run(1, 10, "aa"), run(2, 10, "bb")}
	for _, tc := range []struct {
		name string
		b    []runResult
		want string // "" = comparable
	}{
		{"the same seeds and schedules", []runResult{run(1, 10, "aa"), run(2, 10, "bb")}, ""},
		{"other seeds, same window", []runResult{run(3, 10, "cc")}, ""},
		{"a shorter window", []runResult{run(3, 5, "cc")}, "different lengths"},
		{"another schedule under the same seed", []runResult{run(2, 10, "xx")}, "different schedules"},
	} {
		err := sameInput(a, tc.b)
		if (err == nil) != (tc.want == "") || (err != nil && !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestSleeperDoesNotWakeEarly(t *testing.T) {
	sl, err := newSleeper()
	if err != nil {
		t.Fatal(err)
	}
	defer sl.close()
	sl.until(time.Now().Add(-time.Second)) // already past: returns at once
	for i := 0; i < 3; i++ {
		due := time.Now().Add(2 * time.Millisecond)
		sl.until(due)
		if early := time.Until(due); early > 0 {
			t.Errorf("woke %v before the due time", early)
		}
	}
}

// TestBenchmarkJSONAgreesWithTheCode keeps the driver's contract file and
// the tables the program reports from in step.
func TestBenchmarkJSONAgreesWithTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d declared, -seconds defaults to %d", decl.RunSeconds, runSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the code", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: declared %q (%q), code has %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in the code", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range decl.EndToEnd {
		if got := (metricSpec{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end-to-end metric %d: declared %+v, code has %+v", i, got, endToEnd[i])
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in the code", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range decl.PerLayer {
		if got := (metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better}); got != perLayer[i] {
			t.Errorf("per-layer metric %d: declared %+v, code has %+v", i, got, perLayer[i])
		}
	}
}

// TestReadmeTableAgreesWithTheCode keeps the end-to-end table a person
// reads in step with the one the program reports from.
func TestReadmeTableAgreesWithTheCode(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, found := strings.Cut(string(data), "| name | unit | bound | meaning |")
	if !found {
		t.Fatal("README.md has no end-to-end metrics table")
	}
	var got []string
	for _, line := range strings.Split(table, "\n")[2:] { // after the rest of the header and the ruler
		cells := strings.Split(line, "|")
		if len(cells) < 5 {
			break
		}
		got = append(got, strings.Join([]string{strings.Trim(cells[1], " `"), strings.TrimSpace(cells[2]), strings.TrimSpace(cells[3])}, " "))
	}
	var want []string
	for _, m := range endToEnd {
		want = append(want, fmt.Sprintf("%s %s %.2f", m.Name, m.Unit, m.Bound))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("README.md lists name, unit, bound as\n%s\nthe code has\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// perLayerNames lists "name unit" of the declared per-layer metrics, sorted.
func perLayerNames() []string {
	var out []string
	for _, m := range perLayer {
		out = append(out, m.Name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

// buildForTest compiles the server once per test binary.
func buildForTest(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bfabric")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/bfabric")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload end to end against the real child binary,
// and one trace, on a tiny population with one-second windows. Nothing
// here asserts a time.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes")
	}
	bin := buildForTest(t)
	dir := t.TempDir()
	small := smokePlan()
	for _, wl := range workloads {
		wl.Scale = 0.02
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			var log bytes.Buffer
			res, err := runEndToEnd(bin, dir, wl, small, &log)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct %v, %d failed of %d: %v", res.Correct, res.Failed, res.Attempted, res.Failures)
			}
			for _, spec := range endToEnd {
				if m, ok := res.Metrics[spec.Name]; !ok || m.Value <= 0 || m.Unit != spec.Unit {
					t.Errorf("metric %s = %+v, want a positive value in %s", spec.Name, m, spec.Unit)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(endToEnd))
			}
		})
	}
	for _, name := range []string{"mixed", "replica-restart"} {
		t.Run("trace/"+name, func(t *testing.T) { traceSmoke(t, dir, name, small) })
	}
}

func traceSmoke(t *testing.T, dir, name string, small plan) {
	t.Parallel()
	wl, _ := findWorkload(name)
	wl.Scale = 0.02
	var log bytes.Buffer
	res, err := runTrace(dir, wl, small, &log)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if !res.Correct || res.Metrics["durability.acked_lost"].Value != 0 {
		t.Errorf("correct %v, acked_lost %v: %v", res.Correct, res.Metrics["durability.acked_lost"].Value, res.Failures)
	}
	var got []string
	for name, m := range res.Metrics {
		got = append(got, name+" "+m.Unit)
	}
	sort.Strings(got)
	want := perLayerNames()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("trace reported:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, exact := range []string{"store.commits_per_write", "wal.fsyncs_per_write"} {
		if res.Metrics[exact].Value != 1 {
			t.Errorf("%s = %v on a closed loop of clients taking turns, want exactly 1", exact, res.Metrics[exact].Value)
		}
	}
}
