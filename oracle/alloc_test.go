// The race detector drops sync.Pool entries at random, so allocation
// counts are only pinned without it.

//go:build !race

package oracle_test

import (
	"runtime"
	"testing"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/oracle"
)

// allocsPerRun counts fn's heap allocations per call the way
// testing.AllocsPerRun does: one warm-up call, then runs calls on one P.
// It stands in for testing.AllocsPerRun because linking that function
// moves the min-plus kernel's code alignment in this test binary, which
// alone slowed BenchmarkPublishRebuild256 by about 15% on a 2-core Xeon.
func allocsPerRun(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// TestHotPathAllocatesOnlyTheRoute pins that a hot Path pays for its answer
// only: the row it routes over is gathered into pooled scratch, so the call
// allocates no more than the route it returns.
func TestHotPathAllocatesOnlyTheRoute(t *testing.T) {
	const n = 1024
	g := cliqueapsp.RandomGraph(n, 100, 5)
	o := oracle.New(oracle.Config{Algorithm: "test-exact"})
	defer o.Close()
	v, err := o.SetGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v)
	const src, dst = 3, n - 7
	rowV := cliqueapsp.Exact(g).Row(dst)
	want, cost, err := cliqueapsp.RouteToward(g, src, dst, rowV)
	if err != nil {
		t.Fatal(err)
	}
	if pr, err := o.Path(src, dst); err != nil || pr.Cost != cost || len(pr.Path) != len(want) {
		t.Fatalf("Path(%d,%d) = %+v, %v; want cost %d over %v", src, dst, pr, err, cost, want)
	}
	route := allocsPerRun(100, func() {
		if _, _, err := cliqueapsp.RouteToward(g, src, dst, rowV); err != nil {
			t.Fatal(err)
		}
	})
	path := allocsPerRun(100, func() {
		if _, err := o.Path(src, dst); err != nil {
			t.Fatal(err)
		}
	})
	if path > route {
		t.Fatalf("hot Path allocates %v times per call, the route alone %v", path, route)
	}
}
