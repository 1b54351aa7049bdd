// Command perfbench is the repository benchmark. It drives the real ccserve
// binary on loopback with one workload per run and prints the end-to-end
// metrics, or, with -trace 1, replays the workload's op stream in-process
// against each layer's public functions and prints per-layer metrics.
//
// Build and run it from the repository root through run.sh, which builds
// ccserve and this harness first:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 8 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it records the
// run's environment and counters. The exit code is nonzero when any answer
// was wrong or any op failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: serve-hot, serve-cold, rebuild or patch-mixed")
		seed    = flag.Int64("seed", 1, "workload seed; every input is derived from it")
		secs    = flag.Float64("seconds", 10, "length of the timed window")
		traced  = flag.Int("trace", 0, "1 = in-process traced run printing per-layer metrics")
		ccserve = flag.String("ccserve", "", "path to the ccserve binary")
		work    = flag.String("work", "", "scratch directory for data dirs, logs and traces")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *ccserve == "" || *work == "" || *secs <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %v\nusage: perfbench -ccserve BIN -work DIR -workload NAME [-seed N] [-seconds S] [-trace 0|1]\n", err)
		return 2
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	// Fewer collections in the client keep its pauses out of the latencies.
	debug.SetGCPercent(400)

	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	keys, err := writeKeys(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e := env{ccserve: *ccserve, work: dir, keys: keys, procs: procs, seconds: *secs, seed: *seed}

	var rep *report
	if *traced == 1 {
		rep, err = runTraced(e, w, filepath.Join(*work, "traces"))
	} else {
		rep, err = runE2E(e, w)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return emit(e, w, *traced == 1, rep)
}

// resultOf assembles the final result line: every metric the mode prints,
// with its unit. A metric the run did not measure is an error.
func resultOf(rep *report, traced bool) (result, error) {
	want := endToEnd
	if traced {
		want = perLayer
	}
	attempted, failed := rep.totals()
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(want))}
	for name, unit := range want {
		v, ok := rep.metrics[name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", name)
		}
		r.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
	return r, nil
}

// emit prints the run's metrics, its environment line and the final result
// line, and returns the exit code.
func emit(e env, w workload, traced bool, rep *report) int {
	r, err := resultOf(rep, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-44s %14.6g %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", p)
	}
	info := environment(e, w)
	for k, v := range rep.info {
		info[k] = v
	}
	info["ops"] = rep.classes
	line, _ := json.Marshal(map[string]any{"env": info})
	fmt.Println(string(line))
	line, _ = json.Marshal(r)
	fmt.Println(string(line))
	if !r.Correct || r.Attempted < 1 {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEnd is every end-to-end metric with its unit; BENCHMARK.json lists
// the same names and units.
var endToEnd = map[string]string{
	"setup_s":         "s",
	"ops_per_s":       "1/s",
	"latency_p50_us":  "us",
	"latency_tail_us": "us",
	"update_p50_us":   "us",
	"update_tail_us":  "us",
	"cpu_us_per_op":   "us",
	"heap_live_mb":    "MiB",
	"stretch_mean":    "ratio",
}

// environment tags a result with what it ran on.
func environment(e env, w workload) map[string]any {
	return map[string]any{
		"workload":               w.name,
		"seed":                   e.seed,
		"seconds":                e.seconds,
		"nproc":                  runtime.NumCPU(),
		"gomaxprocs":             runtime.GOMAXPROCS(0),
		"go":                     runtime.Version(),
		"commit":                 commit(),
		"datadir_fs":             fsType(e.work),
		"ccserve_gomaxprocs_env": e.procs,
	}
}

// commit names the checked-out revision, or "unknown" outside a git
// checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
