// Command bench is the repository's benchmark: four portal workloads
// driven open-loop over loopback TCP against the real bfabric binary, and
// a traced in-process run that prices each layer from the outside. See
// README.md in this directory for the metrics, their bounds and how a
// later change words a claim against them.
//
// Usage, from the root of the repository:
//
//	go run ./bench                                  all workloads, end to end
//	go run ./bench -workload browse -seed 3         one workload
//	go run ./bench -workload browse -trace 1        its per-layer trace
//	go run ./bench -record out.json ...             append the run to a file
//	go run ./bench -compare a.json b.json           compare two such files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
)

func main() {
	workloadName := flag.String("workload", "all", "browse, register, mixed, replica-restart or all")
	seed := flag.Int64("seed", 1, "seed of the population and the request schedule")
	seconds := flag.Int("seconds", runSeconds, "length of the measured open-loop window: a constant, which the driver passes all the same; any other value is refused")
	trace := flag.Int("trace", 0, "1 = the in-process traced run that yields the per-layer metrics")
	conns := flag.Int("conns", min(2, runtime.NumCPU()), "keep-alive connections, one worker goroutine each")
	record := flag.String("record", "", "append the run's result to this JSON file")
	compare := flag.String("compare", "", "compare this results file with the one given as argument")
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		if err := compareFiles(*compare, flag.Arg(0), os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	// The load is sized to the machine. Once the CPUs are split the workers
	// share the generator's half; that they did not wait for each other is
	// measured, not assumed: see the generator-health limits of plan.
	if *conns < 1 || *conns > runtime.NumCPU() {
		fatal(fmt.Errorf("%d connections asked for on %d CPUs", *conns, runtime.NumCPU()))
	}
	if *seconds != runSeconds {
		fatal(fmt.Errorf("-seconds %d: the window is fixed at %d s, the run_seconds of BENCHMARK.json, so that every recorded run compares with every other", *seconds, runSeconds))
	}
	var todo []workload
	if *workloadName == "all" {
		todo = workloads
	} else if wl, ok := findWorkload(*workloadName); ok {
		todo = []workload{wl}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}

	// A signal must not leave server children behind.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAllChildren()
		os.Exit(1)
	}()

	// Build with every CPU, then give half of them to the server.
	var bin string
	if *trace == 0 {
		var err error
		if bin, err = buildServer(); err != nil {
			fatal(err)
		}
		if err := splitCPUs(); err != nil {
			fatal(err)
		}
	}
	printEnvironment()
	ok := true
	for _, wl := range todo {
		var res *runResult
		var err error
		pl := standardPlan(*seed, *conns)
		if *trace != 0 {
			res, err = runTrace(buildDir, wl, pl, os.Stdout)
		} else {
			res, err = runEndToEnd(bin, buildDir, wl, pl, os.Stdout)
		}
		if err != nil {
			killAllChildren()
			fatal(fmt.Errorf("%s: %w", wl.Name, err))
		}
		printResult(res)
		if *record != "" {
			if err := appendResult(*record, res); err != nil {
				fatal(err)
			}
		}
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// printEnvironment records what the numbers were taken on.
func printEnvironment() {
	fmt.Printf("env: nproc %d, GOMAXPROCS %d, %s %s/%s, data dir on %s, fsync always\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, fsType(buildDir))
	if serverCPUs != nil {
		fmt.Printf("env: server children on CPUs %v, generator on CPUs %v\n", serverCPUs.cpus(), generatorCPUs.cpus())
	}
}

// fsType names the filesystem under path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("fs type %#x", int64(st.Type))
}

// printResult prints every metric by name with unit and sample count, and
// as the last line the JSON object the driver reads.
func printResult(res *runResult) {
	kind := "end-to-end"
	if res.Trace {
		kind = "per-layer"
	}
	fmt.Printf("== %s, seed %d: %s metrics\n", res.Workload, res.Seed, kind)
	printMetrics := func(ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := ms[n]
			fmt.Printf("  %-36s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.N)
		}
	}
	printMetrics(res.Metrics)
	if len(res.Info) > 0 {
		fmt.Println("  -- not gated:")
		printMetrics(res.Info)
	}
	for _, f := range res.Failures {
		fmt.Println("  FAIL:", f)
	}
	type outMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]outMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]outMetric{}}
	for n, m := range res.Metrics {
		out.Metrics[n] = outMetric{m.Value, m.Unit}
	}
	if !res.Trace && len(out.Metrics) != len(endToEnd) {
		fatal(fmt.Errorf("%d end-to-end metrics reported, %d declared", len(out.Metrics), len(endToEnd)))
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// appendResult adds res to the JSON array in path, creating the file.
func appendResult(path string, res *runResult) error {
	var all []*runResult
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	all = append(all, res)
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
