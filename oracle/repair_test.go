package oracle_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/oracle"
)

// The repair gate holds "test-repair-gated" builds hostage until the test
// that armed it releases them, so deltas provably arrive while the first
// build is in flight. Per-arming, like ccserve's test gate, so the binary
// survives -count=N.
var (
	repairGateMu      sync.Mutex
	repairGate        = make(chan struct{})
	repairGateEntered = make(chan struct{}, 8)
)

func currentRepairGate() (gate, entered chan struct{}) {
	repairGateMu.Lock()
	defer repairGateMu.Unlock()
	return repairGate, repairGateEntered
}

func resetRepairGate() (gate, entered chan struct{}) {
	repairGateMu.Lock()
	defer repairGateMu.Unlock()
	repairGate = make(chan struct{})
	repairGateEntered = make(chan struct{}, 8)
	return repairGate, repairGateEntered
}

func init() {
	mustRegister("test-repair-gated", cliqueapsp.AlgorithmSpec{
		Summary:     "exact distances, but only after the repair test gate opens",
		FactorBound: "1",
		RoundClass:  "0",
		Bandwidth:   "n/a",
		Run: func(ctx context.Context, g *cliqueapsp.Graph, p cliqueapsp.RunParams) (cliqueapsp.AlgorithmOutput, error) {
			gate, entered := currentRepairGate()
			select {
			case entered <- struct{}{}:
			default:
			}
			select {
			case <-gate:
			case <-ctx.Done():
				return cliqueapsp.AlgorithmOutput{}, ctx.Err()
			}
			return cliqueapsp.AlgorithmOutput{Distances: cliqueapsp.Exact(g), Factor: 1}, nil
		},
	})
	// test-approx: doubled exact distances under a factor-2 bound — an
	// approximate backend whose estimates are checkable (true ≤ est ≤ 2·true).
	mustRegister("test-approx", cliqueapsp.AlgorithmSpec{
		Summary:     "doubled exact distances for approximate-repair tests",
		FactorBound: "2",
		RoundClass:  "0",
		Bandwidth:   "n/a",
		Run: func(ctx context.Context, g *cliqueapsp.Graph, p cliqueapsp.RunParams) (cliqueapsp.AlgorithmOutput, error) {
			exact := cliqueapsp.Exact(g)
			n := g.N()
			rows := make([][]int64, n)
			for u := 0; u < n; u++ {
				rows[u] = make([]int64, n)
				for v := 0; v < n; v++ {
					d := exact.At(u, v)
					if d < cliqueapsp.Inf {
						d *= 2
					}
					rows[u][v] = d
				}
			}
			doubled, err := cliqueapsp.DistancesFromSlices(rows)
			if err != nil {
				return cliqueapsp.AlgorithmOutput{}, err
			}
			return cliqueapsp.AlgorithmOutput{Distances: doubled, Factor: 2}, nil
		},
	})
}

// expectExact asserts every pair the oracle serves is byte-identical to a
// from-scratch exact computation on g.
func expectExact(t *testing.T, o *oracle.Oracle, g *cliqueapsp.Graph) {
	t.Helper()
	exact := cliqueapsp.Exact(g)
	n := g.N()
	pairs := make([]oracle.Pair, 0, n*n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			pairs = append(pairs, oracle.Pair{U: u, V: v})
		}
	}
	br, err := o.Batch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range br.Answers {
		want := exact.At(pairs[i].U, pairs[i].V)
		if want >= cliqueapsp.Inf {
			if a.Reachable || a.Distance != oracle.Unreachable {
				t.Fatalf("pair (%d,%d): %+v, want unreachable", pairs[i].U, pairs[i].V, a)
			}
			continue
		}
		if !a.Reachable || a.Distance != want {
			t.Fatalf("pair (%d,%d): %+v, want exactly %d", pairs[i].U, pairs[i].V, a, want)
		}
	}
}

// TestOracleRepairSingleEdge is the acceptance shape: one reweighted edge
// publishes through the repair path — no second engine run — and the repaired
// answers are byte-identical to a from-scratch rebuild of the patched graph.
func TestOracleRepairSingleEdge(t *testing.T) {
	g := cliqueapsp.RandomGraph(64, 120, 11)
	o := oracle.New(oracle.Config{Algorithm: "test-exact", RepairMaxDirtyFrac: 1})
	defer o.Close()
	v1, err := o.SetGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v1)

	e := g.Edges()[0]
	d := cliqueapsp.GraphDelta{Edges: []cliqueapsp.EdgeDelta{
		{Op: cliqueapsp.DeltaReweight, U: e.U, V: e.V, W: e.W + 17},
	}}
	v2, err := o.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v1+1 {
		t.Fatalf("delta version %d, want %d", v2, v1+1)
	}
	waitReady(t, o, v2)

	st := o.Stats()
	if st.Rebuilds != 1 || st.Repairs != 1 || st.RepairFallbacks != 0 {
		t.Fatalf("counters after repair: rebuilds=%d repairs=%d fallbacks=%d",
			st.Rebuilds, st.Repairs, st.RepairFallbacks)
	}
	if st.Version != v2 {
		t.Fatalf("serving version %d, want %d", st.Version, v2)
	}
	patched, err := g.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	expectExact(t, o, patched)
	// Paths route on the repaired tables; with exact estimates the realized
	// cost must equal the exact distance.
	exact := cliqueapsp.Exact(patched)
	pr, err := o.Path(e.U, e.V)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Reachable || pr.Cost != exact.At(e.U, e.V) {
		t.Fatalf("path after repair: %+v, want cost %d", pr, exact.At(e.U, e.V))
	}
}

// TestOracleRepairEquivalenceRandomized drives random delta streams — adds,
// removals, reweights in both directions — through the repair path and checks
// every published matrix against a from-scratch exact rebuild.
func TestOracleRepairEquivalenceRandomized(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := cliqueapsp.RandomGraph(40, 90, seed)
		o := oracle.New(oracle.Config{Algorithm: "test-exact", RepairMaxDirtyFrac: 1})
		v, err := o.SetGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		waitReady(t, o, v)

		const rounds = 4
		for r := 0; r < rounds; r++ {
			d := cliqueapsp.RandomDeltas(g, 6, 60, seed*100+int64(r))
			g, err = g.Apply(d)
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, r, err)
			}
			v, err = o.ApplyDelta(d)
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, r, err)
			}
			waitReady(t, o, v)
			expectExact(t, o, g)
		}
		st := o.Stats()
		if st.Repairs != rounds || st.Rebuilds != 1 || st.RepairFallbacks != 0 {
			t.Fatalf("seed %d: rebuilds=%d repairs=%d fallbacks=%d, want 1/%d/0",
				seed, st.Rebuilds, st.Repairs, st.RepairFallbacks, rounds)
		}
		o.Close()
	}
}

// TestOracleRepairFallbacks pins the rebuild ladder: a negative fraction
// disables repair outright, and a tiny fraction falls back once the dirty set
// outgrows it — in both cases the publish still lands and is still exact.
func TestOracleRepairFallbacks(t *testing.T) {
	g := cliqueapsp.RandomGraph(32, 60, 5)
	e := g.Edges()[0]
	d := cliqueapsp.GraphDelta{Edges: []cliqueapsp.EdgeDelta{
		{Op: cliqueapsp.DeltaReweight, U: e.U, V: e.V, W: e.W + 1},
	}}
	for name, frac := range map[string]float64{"disabled": -1, "tiny": 1e-9} {
		o := oracle.New(oracle.Config{Algorithm: "test-exact", RepairMaxDirtyFrac: frac})
		v, err := o.SetGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		waitReady(t, o, v)
		v2, err := o.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		waitReady(t, o, v2)
		st := o.Stats()
		if st.Repairs != 0 || st.RepairFallbacks != 1 || st.Rebuilds != 2 {
			t.Fatalf("%s: rebuilds=%d repairs=%d fallbacks=%d, want 2/0/1",
				name, st.Rebuilds, st.Repairs, st.RepairFallbacks)
		}
		patched, err := g.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		expectExact(t, o, patched)
		o.Close()
	}
}

// TestOracleRepairApproximate: on an approximate matrix decreases repair in
// place (the combine step only ever lowers estimates, never below the truth)
// while any increase falls back to a full rebuild.
func TestOracleRepairApproximate(t *testing.T) {
	g := cliqueapsp.RandomGraph(32, 80, 7)
	o := oracle.New(oracle.Config{Algorithm: "test-approx", RepairMaxDirtyFrac: 1})
	defer o.Close()
	v, err := o.SetGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v)

	e := g.Edges()[0]
	down := cliqueapsp.GraphDelta{Edges: []cliqueapsp.EdgeDelta{
		{Op: cliqueapsp.DeltaReweight, U: e.U, V: e.V, W: 0},
	}}
	v2, err := o.ApplyDelta(down)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v2)
	st := o.Stats()
	if st.Repairs != 1 || st.RepairFallbacks != 0 {
		t.Fatalf("decrease on approximate matrix: repairs=%d fallbacks=%d, want 1/0",
			st.Repairs, st.RepairFallbacks)
	}
	if st.FactorBound != 2 {
		t.Fatalf("repaired snapshot factor bound %v, want 2 (inherited)", st.FactorBound)
	}
	// Every estimate stays inside the advertised factor: true ≤ est ≤ 2·true.
	g2, err := g.Apply(down)
	if err != nil {
		t.Fatal(err)
	}
	exact := cliqueapsp.Exact(g2)
	n := g2.N()
	pairs := make([]oracle.Pair, 0, n*n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			pairs = append(pairs, oracle.Pair{U: u, V: v})
		}
	}
	br, err := o.Batch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range br.Answers {
		want := exact.At(pairs[i].U, pairs[i].V)
		if want >= cliqueapsp.Inf {
			if a.Reachable {
				t.Fatalf("pair (%d,%d) reachable, exact says not", pairs[i].U, pairs[i].V)
			}
			continue
		}
		if !a.Reachable || a.Distance < want || a.Distance > 2*want {
			t.Fatalf("pair (%d,%d): est %d outside [%d, %d]", pairs[i].U, pairs[i].V, a.Distance, want, 2*want)
		}
	}

	// An increase cannot be validated locally on an approximate matrix: the
	// publish must come from the engine.
	up := cliqueapsp.GraphDelta{Edges: []cliqueapsp.EdgeDelta{
		{Op: cliqueapsp.DeltaReweight, U: e.U, V: e.V, W: 50},
	}}
	v3, err := o.ApplyDelta(up)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v3)
	st = o.Stats()
	if st.Repairs != 1 || st.RepairFallbacks != 1 || st.Rebuilds != 2 {
		t.Fatalf("increase on approximate matrix: rebuilds=%d repairs=%d fallbacks=%d, want 2/1/1",
			st.Rebuilds, st.Repairs, st.RepairFallbacks)
	}
}

// TestOracleApplyDeltaValidation pins the entry contract: no base graph is a
// typed error, an invalid delta mutates nothing and names its index, and the
// oracle keeps serving the old snapshot afterwards.
func TestOracleApplyDeltaValidation(t *testing.T) {
	o := oracle.New(oracle.Config{Algorithm: "test-exact"})
	defer o.Close()
	if _, err := o.ApplyDelta(cliqueapsp.GraphDelta{Edges: []cliqueapsp.EdgeDelta{
		{Op: cliqueapsp.DeltaAdd, U: 0, V: 1, W: 1},
	}}); !errors.Is(err, oracle.ErrNoGraph) {
		t.Fatalf("delta before any graph: %v, want ErrNoGraph", err)
	}

	v, err := o.SetGraph(pathGraph(t, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v)
	if _, err := o.ApplyDelta(cliqueapsp.GraphDelta{Edges: []cliqueapsp.EdgeDelta{
		{Op: cliqueapsp.DeltaReweight, U: 0, V: 1, W: 9},
		{Op: cliqueapsp.DeltaAdd, U: 1, V: 2, W: 1}, // exists
	}}); err == nil || !strings.Contains(err.Error(), "delta 1") {
		t.Fatalf("invalid delta: %v, want error naming delta 1", err)
	}
	if got := o.Version(); got != v {
		t.Fatalf("version moved to %d after a rejected delta", got)
	}
	dr, err := o.Dist(0, 1)
	if err != nil || dr.Distance != 5 {
		t.Fatalf("serving state after rejected delta: %+v, %v", dr, err)
	}

	o.Close()
	if _, err := o.ApplyDelta(cliqueapsp.GraphDelta{Edges: []cliqueapsp.EdgeDelta{
		{Op: cliqueapsp.DeltaReweight, U: 0, V: 1, W: 9},
	}}); !errors.Is(err, oracle.ErrClosed) {
		t.Fatalf("delta after Close: %v, want ErrClosed", err)
	}
}

// TestOracleDeltaCoalescing arms the build gate so the upload's build is
// provably in flight, then lands two deltas: the first must target the
// in-flight graph (not the not-yet-published serving state), the second must
// coalesce onto the first's queued unit — one repair publishes both.
func TestOracleDeltaCoalescing(t *testing.T) {
	gate, entered := resetRepairGate()
	o := oracle.New(oracle.Config{Algorithm: "test-repair-gated", RepairMaxDirtyFrac: 1})
	defer o.Close()
	g := pathGraph(t, 8, 5)
	v1, err := o.SetGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("build never started")
	}
	// The build is parked on the gate: deltas arriving now see no published
	// snapshot and no queued unit, only in-flight work.
	d1 := cliqueapsp.GraphDelta{Edges: []cliqueapsp.EdgeDelta{
		{Op: cliqueapsp.DeltaReweight, U: 0, V: 1, W: 2},
	}}
	v2, err := o.ApplyDelta(d1)
	if err != nil {
		t.Fatalf("delta during in-flight build: %v", err)
	}
	d2 := cliqueapsp.GraphDelta{Edges: []cliqueapsp.EdgeDelta{
		{Op: cliqueapsp.DeltaAdd, U: 0, V: 7, W: 3},
		{Op: cliqueapsp.DeltaReweight, U: 6, V: 7, W: 1},
	}}
	v3, err := o.ApplyDelta(d2)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v1+1 || v3 != v2+1 {
		t.Fatalf("versions %d, %d, %d not consecutive", v1, v2, v3)
	}
	close(gate)
	waitReady(t, o, v3)

	st := o.Stats()
	if st.Rebuilds != 1 || st.Repairs != 1 {
		t.Fatalf("rebuilds=%d repairs=%d, want 1/1 (one build, one coalesced repair)",
			st.Rebuilds, st.Repairs)
	}
	if st.CoalescedDeltas != uint64(len(d2.Edges)) {
		t.Fatalf("coalesced_deltas=%d, want %d", st.CoalescedDeltas, len(d2.Edges))
	}
	want := g
	for _, d := range []cliqueapsp.GraphDelta{d1, d2} {
		if want, err = want.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	expectExact(t, o, want)
}

// TestOracleConcurrentDeltasAndQueries hammers Dist/Batch/Path while deltas
// publish underneath (run under -race). Version v serves a path graph whose
// edge {0,1} weighs 100+v, so every answer is checkable against the version
// it reports.
func TestOracleConcurrentDeltasAndQueries(t *testing.T) {
	g := cliqueapsp.NewGraph(8)
	if err := g.AddEdge(0, 1, 100+1); err != nil {
		t.Fatal(err)
	}
	for i := 1; i+1 < 8; i++ {
		if err := g.AddEdge(i, i+1, 7); err != nil {
			t.Fatal(err)
		}
	}
	o := oracle.New(oracle.Config{Algorithm: "test-exact"})
	defer o.Close()
	v, err := o.SetGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v)

	stop := make(chan struct{})
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(mode int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch mode % 3 {
				case 0:
					dr, err := o.Dist(0, 1)
					if err != nil {
						errc <- err
						return
					}
					if dr.Distance != int64(100+dr.Version) {
						errc <- errors.New("Dist inconsistent with its version")
						return
					}
				case 1:
					br, err := o.Batch([]oracle.Pair{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
					if err != nil {
						errc <- err
						return
					}
					w01 := int64(100 + br.Version)
					if br.Answers[0].Distance != w01 || br.Answers[1].Distance != 7 ||
						br.Answers[2].Distance != w01+7 {
						errc <- errors.New("Batch inconsistent with its version")
						return
					}
				case 2:
					pr, err := o.Path(0, 2)
					if err != nil {
						errc <- err
						return
					}
					if !pr.Reachable || pr.Cost != int64(100+pr.Version)+7 {
						errc <- errors.New("Path inconsistent with its version")
						return
					}
				}
			}
		}(w)
	}

	for i := 0; i < 24; i++ {
		v2, err := o.ApplyDelta(cliqueapsp.GraphDelta{Edges: []cliqueapsp.EdgeDelta{
			{Op: cliqueapsp.DeltaReweight, U: 0, V: 1, W: int64(100 + v + 1)},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if v2 != v+1 {
			t.Fatalf("version %d after %d, want consecutive", v2, v)
		}
		v = v2
		waitReady(t, o, v)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	st := o.Stats()
	if st.Repairs+st.Rebuilds < 25 {
		t.Fatalf("publishes %d+%d, want 25", st.Repairs, st.Rebuilds)
	}
}

// BenchmarkPublishRebuild256 and BenchmarkPublishRepair256 time the two
// ways a single-edge reweight (+1, the direction that must prove which
// sources the old weight was load-bearing for) can publish on an exact
// n=256 snapshot: a full rebuild, and the repair path. scripts/benchgate.sh
// requires the repair to be faster; the repair benchmark fails outright if
// the delta fell back to a rebuild.
func BenchmarkPublishRebuild256(b *testing.B) {
	g := cliqueapsp.RandomGraph(256, 100, 1)
	o := oracle.New(oracle.Config{Algorithm: cliqueapsp.AlgExact})
	defer o.Close()
	for i := 0; i < b.N; i++ {
		v, err := o.SetGraph(g)
		if err != nil {
			b.Fatal(err)
		}
		waitReady(b, o, v)
	}
}

func BenchmarkPublishRepair256(b *testing.B) {
	g := cliqueapsp.RandomGraph(256, 100, 1)
	e := g.Edges()[0]
	d := cliqueapsp.GraphDelta{Edges: []cliqueapsp.EdgeDelta{
		{Op: cliqueapsp.DeltaReweight, U: e.U, V: e.V, W: e.W + 1},
	}}
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		o := oracle.New(oracle.Config{Algorithm: cliqueapsp.AlgExact, RepairMaxDirtyFrac: 1})
		v, err := o.SetGraph(g)
		if err != nil {
			b.Fatal(err)
		}
		waitReady(b, o, v)
		b.StartTimer()
		if v, err = o.ApplyDelta(d); err != nil {
			b.Fatal(err)
		}
		waitReady(b, o, v)
		b.StopTimer()
		if o.Stats().Repairs != 1 {
			b.Fatal("the single-edge reweight fell back to a rebuild")
		}
		o.Close()
	}
}
