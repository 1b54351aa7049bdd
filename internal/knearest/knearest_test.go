package knearest

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/congestedclique/cliqueapsp/internal/cc"
	"github.com/congestedclique/cliqueapsp/internal/graph"
	"github.com/congestedclique/cliqueapsp/internal/sched"
)

// assertMatchesReference compares the distributed result with the
// unfiltered per-source reference; equality also validates Lemma 5.5.
func assertMatchesReference(t *testing.T, g *graph.Graph, got *Result, k, hops int) {
	t.Helper()
	want := Reference(g, k, hops)
	for u := range want {
		if len(got.Lists[u]) != len(want[u]) {
			t.Fatalf("node %d: %d entries, want %d\n got  %v\n want %v",
				u, len(got.Lists[u]), len(want[u]), got.Lists[u], want[u])
		}
		for i := range want[u] {
			if got.Lists[u][i] != want[u][i] {
				t.Fatalf("node %d entry %d: got %v, want %v", u, i, got.Lists[u][i], want[u][i])
			}
		}
	}
}

func TestComputeSingleIterationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 6; trial++ {
		n := 40 + rng.Intn(60)
		g := graph.RandomConnected(n, 4, graph.WeightRange{Min: 1, Max: 30}, rng).AsDirected()
		h := 2
		k := int(math.Floor(math.Sqrt(float64(n))))
		clq := cc.New(n, 1)
		got, err := Compute(nil, clq, g, k, h, 1)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesReference(t, g, got, k, h)
		if v := clq.Metrics().Violations; len(v) != 0 {
			t.Fatalf("trial %d: violations %v", trial, v)
		}
	}
}

func TestComputeIteratedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 4; trial++ {
		n := 50 + rng.Intn(40)
		g := graph.RandomConnected(n, 3, graph.WeightRange{Min: 1, Max: 20}, rng).AsDirected()
		h, iters := 2, 3 // 8-hop k-nearest
		k := int(math.Floor(math.Sqrt(float64(n))))
		clq := cc.New(n, 1)
		got, err := Compute(nil, clq, g, k, h, iters)
		if err != nil {
			t.Fatal(err)
		}
		if got.Hops != 8 {
			t.Fatalf("hops = %d, want 8", got.Hops)
		}
		assertMatchesReference(t, g, got, k, 8)
	}
}

func TestComputeH3(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n := 120
	g := graph.RandomConnected(n, 4, graph.WeightRange{Min: 1, Max: 9}, rng).AsDirected()
	h := 3
	k := int(math.Floor(math.Pow(float64(n), 1.0/3.0)))
	clq := cc.New(n, 1)
	got, err := Compute(nil, clq, g, k, h, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, g, got, k, 9)
}

func TestComputeOnDirectedAsymmetric(t *testing.T) {
	// Directed graph where u→v exists but v→u does not (hopset-style).
	rng := rand.New(rand.NewSource(54))
	n := 60
	g := graph.NewDirected(n)
	for i := 0; i < n; i++ {
		g.AddArc(i, (i+1)%n, int64(1+rng.Intn(9)))
		g.AddArc(i, (i+7)%n, int64(1+rng.Intn(9)))
	}
	k := 7
	clq := cc.New(n, 1)
	got, err := Compute(nil, clq, g, k, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, g, got, k, 4)
}

func TestComputeOnCappedGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	n := 48
	g := graph.RandomConnected(n, 3, graph.WeightRange{Min: 2, Max: 20}, rng).AsDirected()
	g.SetCap(9)
	k := 6
	clq := cc.New(n, 1)
	got, err := Compute(nil, clq, g, k, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, g, got, k, 4)
}

func TestComputeFallbackTinyK(t *testing.T) {
	// k so small the bin condition fails → broadcast fallback, still exact.
	rng := rand.New(rand.NewSource(56))
	n := 30
	g := graph.RandomConnected(n, 4, graph.WeightRange{Min: 1, Max: 9}, rng).AsDirected()
	clq := cc.New(n, 1)
	got, err := Compute(nil, clq, g, 2, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, g, got, 2, 5)
}

func TestComputeTinyGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, n := range []int{2, 3, 5} {
		g := graph.RandomConnected(n, 2, graph.WeightRange{Min: 1, Max: 5}, rng).AsDirected()
		clq := cc.New(n, 1)
		got, err := Compute(nil, clq, g, 2, 2, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		assertMatchesReference(t, g, got, min(2, n), 2)
	}
}

func TestComputeKClampedToN(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	n := 12
	g := graph.RandomConnected(n, 3, graph.WeightRange{Min: 1, Max: 5}, rng).AsDirected()
	clq := cc.New(n, 1)
	got, err := Compute(nil, clq, g, 99, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != n {
		t.Fatalf("K = %d, want clamped to %d", got.K, n)
	}
	assertMatchesReference(t, g, got, n, 16)
}

func TestComputeValidation(t *testing.T) {
	g := graph.NewDirected(4)
	clq := cc.New(4, 1)
	if _, err := Compute(nil, clq, g, 0, 2, 1); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := Compute(nil, clq, g, 2, 0, 1); err == nil {
		t.Fatal("h=0 must error")
	}
	if _, err := Compute(nil, clq, g, 2, 2, 0); err == nil {
		t.Fatal("iters=0 must error")
	}
}

func TestComputeConstantRoundsPerIteration(t *testing.T) {
	// Round charge per iteration must not grow with n (Lemma 5.1).
	perIter := make(map[int]int64)
	for _, n := range []int{64, 144, 256} {
		rng := rand.New(rand.NewSource(59))
		g := graph.RandomConnected(n, 4, graph.WeightRange{Min: 1, Max: 9}, rng).AsDirected()
		k := int(math.Floor(math.Sqrt(float64(n))))
		clq := cc.New(n, 1)
		if _, err := Compute(nil, clq, g, k, 2, 1); err != nil {
			t.Fatal(err)
		}
		m := clq.Metrics()
		if len(m.Violations) != 0 {
			t.Fatalf("n=%d: violations %v", n, m.Violations)
		}
		perIter[n] = m.Rounds
	}
	if perIter[256] > perIter[64]+4 {
		t.Fatalf("rounds grew with n: %v", perIter)
	}
}

// The combo nodes' local work fans out over the compute group: the
// worker cap must not change the lists or the model cost, and a cancelled
// group must abort the run with the context's error.
func TestComputeHonoursGroup(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(61))
	g := graph.RandomConnected(200, 4, graph.WeightRange{Min: 1, Max: 30}, rng).AsDirected()
	run := func(par *sched.Group) (*Result, cc.Metrics, error) {
		clq := cc.New(g.N(), 1)
		res, err := Compute(par, clq, g, 14, 2, 3)
		return res, clq.Metrics(), err
	}
	serial, serialM, err := run(pool.Group(context.Background(), 1))
	if err != nil {
		t.Fatal(err)
	}
	wide, wideM, err := run(pool.Group(context.Background(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, wide) || !reflect.DeepEqual(serialM, wideM) {
		t.Fatal("1-worker and full-width groups disagree")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := run(pool.Group(ctx, 0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled group: err = %v, want context.Canceled", err)
	}
}

func TestComputeIncludesSelfFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	g := graph.RandomConnected(40, 4, graph.WeightRange{Min: 1, Max: 9}, rng).AsDirected()
	clq := cc.New(40, 1)
	got, err := Compute(nil, clq, g, 5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for u, l := range got.Lists {
		if len(l) == 0 || l[0].Node != u || l[0].Dist != 0 {
			t.Fatalf("node %d: first entry %v, want (self,0)", u, l)
		}
	}
}

func TestEnumerateCombos(t *testing.T) {
	// h·C(p,h) combos, all distinct, first ∉ rest.
	for _, tc := range []struct{ p, h, want int }{
		{4, 2, 2 * 6}, {5, 2, 2 * 10}, {5, 3, 3 * 10}, {3, 3, 3 * 1},
	} {
		combos := enumerateCombos(tc.p, tc.h)
		if len(combos) != tc.want {
			t.Fatalf("p=%d h=%d: %d combos, want %d", tc.p, tc.h, len(combos), tc.want)
		}
		seen := make(map[string]bool)
		for _, cb := range combos {
			if len(cb) != tc.h {
				t.Fatalf("combo %v has wrong rest size", cb)
			}
			key := ""
			for _, b := range cb {
				key += string(rune('a' + b))
			}
			if seen[key] {
				t.Fatalf("duplicate combo %v", cb)
			}
			seen[key] = true
			for _, b := range cb[1:] {
				if b == cb[0] {
					t.Fatalf("first bin repeated in rest: %v", cb)
				}
			}
		}
	}
}

func TestBinsOfRange(t *testing.T) {
	if first, last := binsOfRange(10, 20, 8, 5); first != 1 || last != 2 {
		t.Fatalf("binsOfRange = %d..%d, want 1..2", first, last)
	}
	if first, last := binsOfRange(0, 8, 8, 5); first != 0 || last != 0 {
		t.Fatalf("binsOfRange = %d..%d, want 0..0", first, last)
	}
	if first, last := binsOfRange(30, 40, 8, 4); first != 3 || last != 3 {
		t.Fatalf("binsOfRange = %d..%d, want 3..3 (clamped to the last bin)", first, last)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestComputeFallbackPLessThanH(t *testing.T) {
	// n small and h huge forces p < h: the broadcast fallback must kick in
	// and still be exact.
	rng := rand.New(rand.NewSource(61))
	n := 20
	g := graph.RandomConnected(n, 3, graph.WeightRange{Min: 1, Max: 9}, rng).AsDirected()
	clq := cc.New(n, 1)
	got, err := Compute(nil, clq, g, 2, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, g, got, 2, 9)
}

func TestComputeDisconnectedDirected(t *testing.T) {
	// Nodes with no outgoing paths still produce (self, 0) lists.
	g := graph.NewDirected(6)
	g.AddArc(0, 1, 2)
	g.AddArc(1, 2, 3)
	clq := cc.New(6, 1)
	got, err := Compute(nil, clq, g, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesReference(t, g, got, 3, 4)
	if len(got.Lists[5]) != 1 || got.Lists[5][0] != (graph.NodeDist{Node: 5, Dist: 0}) {
		t.Fatalf("isolated node list = %v", got.Lists[5])
	}
}

func TestComputeViaSquaringMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 5; trial++ {
		n := 30 + rng.Intn(60)
		g := graph.RandomConnected(n, 4, graph.WeightRange{Min: 1, Max: 20}, rng).AsDirected()
		k := int(math.Floor(math.Sqrt(float64(n))))
		clq := cc.New(n, 1)
		got, err := ComputeViaSquaring(clq, g, k, 3) // 8-hop lists
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesReference(t, g, got, k, 8)
	}
}

func TestComputeViaSquaringAgreesWithBinsMethod(t *testing.T) {
	// Both §5 algorithms compute the same object at matching hop depths.
	rng := rand.New(rand.NewSource(63))
	n := 80
	g := graph.RandomConnected(n, 4, graph.WeightRange{Min: 1, Max: 30}, rng).AsDirected()
	k := 8
	clq1 := cc.New(n, 1)
	bins, err := Compute(nil, clq1, g, k, 2, 2) // 4-hop
	if err != nil {
		t.Fatal(err)
	}
	clq2 := cc.New(n, 1)
	sq, err := ComputeViaSquaring(clq2, g, k, 2) // 4-hop
	if err != nil {
		t.Fatal(err)
	}
	for u := range bins.Lists {
		if len(bins.Lists[u]) != len(sq.Lists[u]) {
			t.Fatalf("node %d: list sizes differ", u)
		}
		for i := range bins.Lists[u] {
			if bins.Lists[u][i] != sq.Lists[u][i] {
				t.Fatalf("node %d entry %d: bins %v vs squaring %v",
					u, i, bins.Lists[u][i], sq.Lists[u][i])
			}
		}
	}
}

func TestComputeViaSquaringValidation(t *testing.T) {
	g := graph.NewDirected(4)
	clq := cc.New(4, 1)
	if _, err := ComputeViaSquaring(clq, g, 0, 1); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := ComputeViaSquaring(clq, g, 2, 0); err == nil {
		t.Fatal("iters=0 must error")
	}
}
