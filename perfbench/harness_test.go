package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the harness must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) (workloads []string, e2e, layer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, e2e, layer
}

// TestSpecMatchesHarness checks, without running anything, that every
// workload BENCHMARK.json names exists in the harness (patch-mixed is the
// harness's only workload it leaves out) and that it declares exactly the
// metrics the harness prints.
func TestSpecMatchesHarness(t *testing.T) {
	names, e2e, layer := loadSpec(t)
	if len(names) != len(workloads)-1 {
		t.Errorf("BENCHMARK.json has %d workloads, want the harness's %d but patch-mixed", len(names), len(workloads))
	}
	for _, n := range names {
		if n == "patch-mixed" {
			t.Error("patch-mixed is listed in BENCHMARK.json; see README for why it is left out")
		}
		if _, err := workloadByName(n); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		what       string
		spec, code map[string]string
	}{{"end-to-end", e2e, endToEnd}, {"per-layer", layer, perLayer}} {
		for name, unit := range c.code {
			if got, ok := c.spec[name]; !ok || got != unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, harness %q", c.what, name, got, unit)
			}
		}
		for name := range c.spec {
			if _, ok := c.code[name]; !ok {
				t.Errorf("%s metric %s is in BENCHMARK.json but never printed", c.what, name)
			}
		}
	}
}

// TestHarness runs every workload at short length twice, end to end and
// traced, and checks that no op failed, no delta coalesced, the fallback
// count repeats, and every printed metric is declared in BENCHMARK.json
// with its unit. It builds ccserve and takes several minutes.
func TestHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice; several minutes")
	}
	_, e2e, layer := loadSpec(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "ccserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ccserve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ccserve: %v\n%s", err, out)
	}
	keys, err := writeKeys(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			var fallbacks [2][2]float64 // [run][e2e, traced]
			for run := 0; run < 2; run++ {
				e := env{ccserve: bin, work: t.TempDir(), keys: keys, procs: runtime.NumCPU(), seconds: 1, seed: 7}
				rep, err := runE2E(e, w)
				if err != nil {
					t.Fatal(err)
				}
				checkRun(t, rep, false, e2e)
				counters := rep.info["counters"].(map[string]uint64)
				if counters["coalesced_deltas"] != 0 {
					t.Errorf("end-to-end: %d deltas coalesced", counters["coalesced_deltas"])
				}
				fallbacks[run][0] = float64(counters["repair_fallbacks"])

				rep, err = runTraced(e, w, filepath.Join(e.work, "traces"))
				if err != nil {
					t.Fatal(err)
				}
				checkRun(t, rep, true, layer)
				if c := rep.metrics["oracle.coalesced_deltas"]; c != 0 {
					t.Errorf("traced: %v deltas coalesced", c)
				}
				fallbacks[run][1] = rep.metrics["oracle.fallbacks"]
			}
			if fallbacks[0] != fallbacks[1] {
				t.Errorf("fallbacks [end-to-end, traced] differ between identical runs: %v then %v", fallbacks[0], fallbacks[1])
			}
		})
	}
}

func checkRun(t *testing.T, rep *report, traced bool, declared map[string]string) {
	t.Helper()
	r, err := resultOf(rep, traced)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 || !r.Correct || r.Attempted < 1 {
		t.Errorf("traced=%v: %d of %d ops failed: %v", traced, r.Failed, r.Attempted, rep.problems)
	}
	for name, m := range r.Metrics {
		if unit, ok := declared[name]; !ok || unit != m.Unit {
			t.Errorf("printed metric %s (%s) is not in BENCHMARK.json with that unit", name, m.Unit)
		}
	}
}

func TestSummarizeTail(t *testing.T) {
	series := func(n int) []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(i+1) * time.Millisecond
		}
		return ds
	}
	for _, c := range []struct {
		n    int
		pct  float64
		tail time.Duration
	}{
		{3, 50, 2 * time.Millisecond},      // no ladder rung has ten beyond
		{109, 90, 99 * time.Millisecond},   // p90 leaves exactly ten
		{1000, 99, 990 * time.Millisecond}, // p99 leaves exactly ten
		{999, 90, 900 * time.Millisecond},  // p99 would leave nine
		{10000, 99.9, 9990 * time.Millisecond},
	} {
		l := summarize(series(c.n))
		if l.tailPct != c.pct || l.tail != c.tail || l.count != c.n {
			t.Errorf("n=%d: tail %v at p%v, want %v at p%v", c.n, l.tail, l.tailPct, c.tail, c.pct)
		}
	}
}
