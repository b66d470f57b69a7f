package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// loadResults reads a file written by -record.
func loadResults(path string) ([]runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []runResult
	if err := json.Unmarshal(data, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// runKey names the group a run's values are compared in.
func runKey(r *runResult) string {
	if r.Trace {
		return r.Workload + " (trace)"
	}
	return r.Workload
}

// sameInput refuses two sets of runs that were not offered the same input:
// windows of different lengths, or, for a workload and seed both sets hold,
// schedules with different script_sha. Medians of such runs differ for
// reasons that are not in the program under test.
func sameInput(a, b []runResult) error {
	seconds := map[int]bool{}
	shas := map[string]string{}
	for i, runs := range [][]runResult{a, b} {
		for j := range runs {
			r := &runs[j]
			if !r.Trace { // the trace run's segments have fixed sizes
				seconds[r.Seconds] = true
			}
			key := fmt.Sprintf("%s seed %d", runKey(r), r.Seed)
			if sha, seen := shas[key]; seen && sha != r.ScriptSHA {
				return fmt.Errorf("%s: script_sha %s and %s: the runs were offered different schedules", key, sha, r.ScriptSHA)
			}
			if i == 0 {
				shas[key] = r.ScriptSHA
			}
		}
	}
	if len(seconds) > 1 {
		return fmt.Errorf("windows of different lengths (-seconds) in the two files: %v", sortedKeys(seconds))
	}
	return nil
}

func sortedKeys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// byMetric groups every metric's values by run key.
func byMetric(runs []runResult) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for i := range runs {
		key := runKey(&runs[i])
		if out[key] == nil {
			out[key] = map[string][]float64{}
		}
		for name, m := range runs[i].Metrics {
			out[key][name] = append(out[key][name], m.Value)
		}
	}
	return out
}

// verdict judges one workload x metric cell. A gated metric whose runs
// spread wider than its bound cannot be told apart from noise and is
// unresolved, not unchanged. "improved" here only says the medians differ
// the right way by more than either side's spread; a claim still takes the
// alternating pairs the choosing-metrics guide asks for.
func verdict(spec metricSpec, gated bool, a, b []float64) (delta, spread float64, word string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		delta = (mb - ma) / ma
	}
	spread = max(quartileSpread(a), quartileSpread(b))
	if !gated {
		if ma == mb {
			return delta, spread, "same"
		}
		return delta, spread, "moved"
	}
	worse := delta
	if spec.Better == "higher" {
		worse = -delta
	}
	switch {
	case spread > spec.Bound:
		return delta, spread, "unresolved"
	case worse > spec.Bound:
		return delta, spread, "regressed"
	case -worse > spread && -worse > 0 && len(a) > 1 && len(b) > 1:
		return delta, spread, "improved"
	}
	return delta, spread, "unchanged"
}

// compareFiles prints, per workload and metric, both medians, the delta,
// the bound and the verdict. It refuses files that fail sameInput.
func compareFiles(pathA, pathB string, w io.Writer) error {
	runsA, err := loadResults(pathA)
	if err != nil {
		return err
	}
	runsB, err := loadResults(pathB)
	if err != nil {
		return err
	}
	if err := sameInput(runsA, runsB); err != nil {
		return fmt.Errorf("%s and %s cannot be compared: %w", pathA, pathB, err)
	}
	a, b := byMetric(runsA), byMetric(runsB)
	var keys []string
	for k := range a {
		if b[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	for _, k := range keys {
		fmt.Fprintf(w, "== %s\n  %-36s %14s %14s %8s %6s %8s  %s\n", k, "metric", "a median", "b median", "delta", "bound", "spread", "verdict")
		var names []string
		for n := range a[k] {
			if b[k][n] != nil {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			spec, gated := specOf(n)
			delta, spread, word := verdict(spec, gated, a[k][n], b[k][n])
			bound := "-"
			if gated {
				bound = fmt.Sprintf("%.2f", spec.Bound)
			}
			fmt.Fprintf(w, "  %-36s %14.4f %14.4f %+7.1f%% %6s %8.3f  %s\n", n, median(a[k][n]), median(b[k][n]),
				delta*100, bound, spread, word)
		}
	}
	return nil
}
