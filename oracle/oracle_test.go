package oracle_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/oracle"
)

// slowRuns counts test-slow executions so coalescing is observable.
var slowRuns atomic.Int64

func init() {
	// test-exact: central exact distances at zero simulated cost — a fast,
	// deterministic backend for serving tests that exercise the oracle layer
	// rather than the paper's pipelines.
	mustRegister("test-exact", cliqueapsp.AlgorithmSpec{
		Summary:     "central exact backend for oracle tests",
		FactorBound: "1",
		RoundClass:  "0",
		Bandwidth:   "n/a",
		Run: func(ctx context.Context, g *cliqueapsp.Graph, p cliqueapsp.RunParams) (cliqueapsp.AlgorithmOutput, error) {
			return cliqueapsp.AlgorithmOutput{Distances: cliqueapsp.Exact(g), Factor: 1}, nil
		},
	})
	// test-lopsided: like test-exact, except that on graphs with an odd node
	// count it overstates d(0, n-1), but not d(n-1, 0), by one — a sound but
	// asymmetric estimate.
	mustRegister("test-lopsided", cliqueapsp.AlgorithmSpec{
		Summary:     "asymmetric backend for the symmetry check",
		FactorBound: "2",
		RoundClass:  "0",
		Bandwidth:   "n/a",
		Run: func(ctx context.Context, g *cliqueapsp.Graph, p cliqueapsp.RunParams) (cliqueapsp.AlgorithmOutput, error) {
			d, err := lopsided(g)
			return cliqueapsp.AlgorithmOutput{Distances: d, Factor: 2}, err
		},
	})
	// test-slow: like test-exact but slow enough for SetGraph calls to pile
	// up while a build is in flight.
	mustRegister("test-slow", cliqueapsp.AlgorithmSpec{
		Summary:     "slow exact backend for coalescing tests",
		FactorBound: "1",
		RoundClass:  "0",
		Bandwidth:   "n/a",
		Run: func(ctx context.Context, g *cliqueapsp.Graph, p cliqueapsp.RunParams) (cliqueapsp.AlgorithmOutput, error) {
			slowRuns.Add(1)
			select {
			case <-time.After(30 * time.Millisecond):
			case <-ctx.Done():
				return cliqueapsp.AlgorithmOutput{}, ctx.Err()
			}
			return cliqueapsp.AlgorithmOutput{Distances: cliqueapsp.Exact(g), Factor: 1}, nil
		},
	})
}

// lopsided is test-lopsided's estimate of g.
func lopsided(g *cliqueapsp.Graph) (*cliqueapsp.DistanceMatrix, error) {
	n := g.N()
	if n%2 == 0 {
		return cliqueapsp.Exact(g), nil
	}
	rows := cliqueapsp.Exact(g).ToSlices()
	rows[0][n-1]++
	return cliqueapsp.DistancesFromSlices(rows)
}

func mustRegister(name cliqueapsp.Algorithm, spec cliqueapsp.AlgorithmSpec) {
	if err := cliqueapsp.Register(name, spec); err != nil {
		panic(err)
	}
}

func waitReady(t testing.TB, o *oracle.Oracle, version uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := o.Wait(ctx, version); err != nil {
		t.Fatalf("Wait(%d): %v", version, err)
	}
}

// pathGraph builds 0-1-2-…-(n-1) with uniform weight w.
func pathGraph(t *testing.T, n int, w int64) *cliqueapsp.Graph {
	t.Helper()
	g := cliqueapsp.NewGraph(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1, w); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestOracleServesDistBatchPath(t *testing.T) {
	g := cliqueapsp.RandomGraph(64, 40, 3)
	o := oracle.New(oracle.Config{Algorithm: "test-exact"})
	defer o.Close()
	v, err := o.SetGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v)

	exact := cliqueapsp.Exact(g)
	dr, err := o.Dist(0, 63)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Version != v {
		t.Fatalf("Dist version %d, want %d", dr.Version, v)
	}
	if !dr.Reachable || dr.Distance != exact.At(0, 63) {
		t.Fatalf("Dist(0,63) = %+v, want exact %d", dr.Answer, exact.At(0, 63))
	}

	pairs := []oracle.Pair{{U: 1, V: 2}, {U: 5, V: 5}, {U: 10, V: 40}}
	br, err := o.Batch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if br.Version != v || len(br.Answers) != len(pairs) {
		t.Fatalf("Batch = version %d / %d answers", br.Version, len(br.Answers))
	}
	for i, a := range br.Answers {
		if a.Distance != exact.At(pairs[i].U, pairs[i].V) {
			t.Fatalf("Batch[%d] = %+v, want %d", i, a, exact.At(pairs[i].U, pairs[i].V))
		}
	}

	pr, err := o.Path(0, 63)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Reachable || pr.Version != v {
		t.Fatalf("Path = %+v", pr)
	}
	if pr.Cost != exact.At(0, 63) {
		t.Fatalf("Path cost %d, want exact %d (exact tables route optimally)", pr.Cost, exact.At(0, 63))
	}
	if pr.Path[0] != 0 || pr.Path[len(pr.Path)-1] != 63 {
		t.Fatalf("Path endpoints %v", pr.Path)
	}
}

func TestOracleUnreachablePairs(t *testing.T) {
	// Two components: {0,1} and {2,3}.
	g := cliqueapsp.NewGraph(4)
	if err := g.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3, 5); err != nil {
		t.Fatal(err)
	}
	o := oracle.New(oracle.Config{Algorithm: "test-exact"})
	defer o.Close()
	v, err := o.SetGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v)

	dr, err := o.Dist(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Reachable || dr.Distance != oracle.Unreachable {
		t.Fatalf("Dist across components = %+v, want Unreachable", dr.Answer)
	}
	pr, err := o.Path(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Reachable || pr.Path != nil || pr.Cost != oracle.Unreachable {
		t.Fatalf("Path across components = %+v, want unreachable", pr)
	}
	br, err := o.Batch([]oracle.Pair{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !br.Answers[0].Reachable || br.Answers[0].Distance != 2 {
		t.Fatalf("in-component answer %+v", br.Answers[0])
	}
	if br.Answers[1].Reachable || br.Answers[1].Distance != oracle.Unreachable {
		t.Fatalf("cross-component answer %+v", br.Answers[1])
	}
}

func TestOracleValidationAndLifecycle(t *testing.T) {
	o := oracle.New(oracle.Config{Algorithm: "test-exact"})
	if _, err := o.Dist(0, 1); !errors.Is(err, oracle.ErrNotReady) {
		t.Fatalf("Dist before SetGraph: %v", err)
	}
	if _, err := o.Batch([]oracle.Pair{{U: 0, V: 1}}); !errors.Is(err, oracle.ErrNotReady) {
		t.Fatalf("Batch before SetGraph: %v", err)
	}
	if _, err := o.Path(0, 1); !errors.Is(err, oracle.ErrNotReady) {
		t.Fatalf("Path before SetGraph: %v", err)
	}
	if _, err := o.SetGraph(nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	if o.Ready() || o.Version() != 0 {
		t.Fatal("oracle ready before any build")
	}

	v, err := o.SetGraph(pathGraph(t, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v)
	if _, err := o.Dist(0, 4); err == nil {
		t.Fatal("out-of-range query accepted")
	}
	if _, err := o.Batch([]oracle.Pair{{U: -1, V: 0}}); err == nil {
		t.Fatal("out-of-range batch pair accepted")
	}

	o.Close()
	o.Close() // idempotent
	if _, err := o.SetGraph(pathGraph(t, 4, 1)); !errors.Is(err, oracle.ErrClosed) {
		t.Fatalf("SetGraph after Close: %v", err)
	}
	if err := o.Wait(context.Background(), v+1); !errors.Is(err, oracle.ErrClosed) {
		t.Fatalf("Wait after Close: %v", err)
	}
	// The last snapshot keeps serving after Close.
	if _, err := o.Dist(0, 3); err != nil {
		t.Fatalf("Dist after Close: %v", err)
	}
}

func TestOracleBuildErrorKeepsServingOldSnapshot(t *testing.T) {
	o := oracle.New(oracle.Config{Algorithm: "test-exact"})
	defer o.Close()
	v1, err := o.SetGraph(pathGraph(t, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v1)

	// An unknown algorithm makes every rebuild fail: no snapshot is ever
	// published and Wait surfaces the build error.
	ob := oracle.New(oracle.Config{Algorithm: "no-such-algorithm"})
	defer ob.Close()
	vb, err := ob.SetGraph(pathGraph(t, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ob.Wait(ctx, vb); err == nil {
		t.Fatal("Wait succeeded for a failing build")
	}
	if ob.Ready() {
		t.Fatal("failing oracle published a snapshot")
	}
	st := ob.Stats()
	if st.RebuildErrors != 1 || st.Rebuilds != 0 {
		t.Fatalf("stats after failed build: %+v", st)
	}

	// The healthy oracle still serves v1.
	dr, err := o.Dist(0, 3)
	if err != nil || dr.Distance != 21 {
		t.Fatalf("Dist on healthy oracle = %+v, %v", dr, err)
	}
}

func TestOracleCoalescesRapidUpdates(t *testing.T) {
	o := oracle.New(oracle.Config{Algorithm: "test-slow"})
	defer o.Close()
	before := slowRuns.Load()

	const sets = 8
	var last uint64
	for i := 0; i < sets; i++ {
		v, err := o.SetGraph(pathGraph(t, 8, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		last = v
	}
	waitReady(t, o, last)

	builds := slowRuns.Load() - before
	if builds >= sets {
		t.Fatalf("%d builds for %d rapid SetGraph calls, want coalescing", builds, sets)
	}
	// The serving snapshot must be the LAST registered graph (weight 8).
	dr, err := o.Dist(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Distance != sets {
		t.Fatalf("final snapshot serves weight %d, want %d (latest graph)", dr.Distance, sets)
	}
	if dr.Version != last {
		t.Fatalf("final snapshot version %d, want %d", dr.Version, last)
	}
}

// TestOracleConsistentSnapshotsDuringRebuilds hammers queries from many
// goroutines while graphs are swapped underneath. Every answer must be
// internally consistent with the snapshot version it reports: version v was
// registered as a path graph of uniform weight 100+v, so d(0,1) = 100+v.
func TestOracleConsistentSnapshotsDuringRebuilds(t *testing.T) {
	o := oracle.New(oracle.Config{Algorithm: "test-exact"})
	defer o.Close()

	v0, err := o.SetGraph(pathGraph(t, 16, 100+1))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(3) {
				case 0:
					dr, err := o.Dist(0, 1)
					if err != nil {
						errc <- err
						return
					}
					if dr.Distance != int64(100+dr.Version) {
						errc <- fmt.Errorf("Dist v%d = %d, want %d", dr.Version, dr.Distance, 100+dr.Version)
						return
					}
				case 1:
					br, err := o.Batch([]oracle.Pair{{U: 0, V: 1}, {U: 1, V: 3}, {U: 0, V: 3}})
					if err != nil {
						errc <- err
						return
					}
					w := int64(100 + br.Version)
					if br.Answers[0].Distance != w || br.Answers[1].Distance != 2*w || br.Answers[2].Distance != 3*w {
						errc <- fmt.Errorf("Batch v%d inconsistent: %+v", br.Version, br.Answers)
						return
					}
				case 2:
					pr, err := o.Path(0, 2)
					if err != nil {
						errc <- err
						return
					}
					if !pr.Reachable || pr.Cost != 2*int64(100+pr.Version) {
						errc <- fmt.Errorf("Path v%d = %+v", pr.Version, pr)
						return
					}
				}
			}
		}(int64(w))
	}

	// Swap graphs as fast as the builder drains them; versions coalesce but
	// each published snapshot still corresponds to exactly one version.
	for i := 2; i <= 40; i++ {
		v, err := o.SetGraph(pathGraph(t, 16, int64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			waitReady(t, o, v)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestOracleLargeBatchNoRowBuilds proves the acceptance criterion: a batch
// of 10k pairs on n=512 answers from the snapshot's distance storage without
// building any next-hop state.
func TestOracleLargeBatchNoRowBuilds(t *testing.T) {
	n := 512
	g := cliqueapsp.RandomGraph(n, 50, 9)
	o := oracle.New(oracle.Config{Algorithm: "test-exact"})
	defer o.Close()
	v, err := o.SetGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v)

	rng := rand.New(rand.NewSource(1))
	pairs := make([]oracle.Pair, 10000)
	for i := range pairs {
		pairs[i] = oracle.Pair{U: rng.Intn(n), V: rng.Intn(n)}
	}
	br, err := o.Batch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if br.Version != v || len(br.Answers) != len(pairs) {
		t.Fatalf("batch version %d, %d answers", br.Version, len(br.Answers))
	}
	exact := cliqueapsp.Exact(g)
	for i := 0; i < len(pairs); i += 997 { // spot checks across the batch
		want := exact.At(pairs[i].U, pairs[i].V)
		if br.Answers[i].Distance != want {
			t.Fatalf("answer %d = %d, want %d", i, br.Answers[i].Distance, want)
		}
	}
	st := o.Stats()
	if st.Answers < 10000 {
		t.Fatalf("answers counter %d", st.Answers)
	}
}

// TestOracleRefusesAsymmetricBuild: Path reads each hop off the
// destination's row, so an estimate must be symmetric. A registered
// algorithm's asymmetric build is refused as a build error while the
// previous snapshot keeps serving, and a hot restore of one is refused too.
func TestOracleRefusesAsymmetricBuild(t *testing.T) {
	o := oracle.New(oracle.Config{Algorithm: "test-lopsided"})
	defer o.Close()
	v1, err := o.SetGraph(pathGraph(t, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v1)
	v2, err := o.SetGraph(pathGraph(t, 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := o.Wait(ctx, v2); err == nil || !strings.Contains(err.Error(), "asymmetric") {
		t.Fatalf("Wait(%d) on an asymmetric build: %v, want the asymmetry refused", v2, err)
	}
	st := o.Stats()
	if st.Version != v1 || st.RebuildErrors != 1 || st.GraphN != 4 {
		t.Fatalf("after the refused build: %+v, want v%d on 4 nodes still serving and 1 rebuild error", st, v1)
	}
	if pr, err := o.Path(0, 3); err != nil || pr.Version != v1 || pr.Cost != 6 {
		t.Fatalf("Path(0,3) after the refused build = %+v, %v; want cost 6 at v%d", pr, err, v1)
	}

	g := pathGraph(t, 5, 2)
	d, err := lopsided(g)
	if err != nil {
		t.Fatal(err)
	}
	r := oracle.New(oracle.Config{})
	defer r.Close()
	if err := r.RestoreSnapshot(1, g, &cliqueapsp.Result{Distances: d, FactorBound: 2}); err == nil || !strings.Contains(err.Error(), "asymmetric") {
		t.Fatalf("restore of an asymmetric estimate: %v, want it refused", err)
	}
	if r.Ready() {
		t.Fatal("a refused restore is serving")
	}
}

// TestOracleSetGraphCopiesInput pins the ownership contract: mutating the
// caller's graph after SetGraph must not leak into the published snapshot.
func TestOracleSetGraphCopiesInput(t *testing.T) {
	g := pathGraph(t, 4, 5)
	o := oracle.New(oracle.Config{Algorithm: "test-exact"})
	defer o.Close()
	v, err := o.SetGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v)
	// A shortcut edge added after registration must be invisible to both
	// distance and path queries until re-registered.
	if err := g.AddEdge(0, 3, 1); err != nil {
		t.Fatal(err)
	}
	dr, err := o.Dist(0, 3)
	if err != nil || dr.Distance != 15 {
		t.Fatalf("Dist sees post-registration mutation: %+v, %v", dr, err)
	}
	pr, err := o.Path(0, 3)
	if err != nil || pr.Cost != 15 || len(pr.Path) != 4 {
		t.Fatalf("Path sees post-registration mutation: %+v, %v", pr, err)
	}
	v2, err := o.SetGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v2)
	if dr, err = o.Dist(0, 3); err != nil || dr.Distance != 1 {
		t.Fatalf("re-registered graph not served: %+v, %v", dr, err)
	}
}

func TestOracleStats(t *testing.T) {
	g := pathGraph(t, 8, 2)
	o := oracle.New(oracle.Config{Algorithm: "test-exact"})
	defer o.Close()
	st := o.Stats()
	if st.Version != 0 || st.Rebuilds != 0 {
		t.Fatalf("fresh oracle stats %+v", st)
	}
	v, err := o.SetGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, o, v)
	if _, err := o.Dist(0, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Batch([]oracle.Pair{{U: 0, V: 1}, {U: 0, V: 2}}); err != nil {
		t.Fatal(err)
	}
	st = o.Stats()
	if st.Version != v || st.GraphN != 8 || st.GraphM != 7 {
		t.Fatalf("stats %+v", st)
	}
	if st.Algorithm != "test-exact" || st.FactorBound != 1 {
		t.Fatalf("provenance %q / %v", st.Algorithm, st.FactorBound)
	}
	if st.DistQueries != 1 || st.BatchQueries != 1 || st.Answers != 3 {
		t.Fatalf("query counters %+v", st)
	}
	if st.Rebuilds != 1 || st.SnapshotAge < 0 {
		t.Fatalf("rebuild counters %+v", st)
	}
}

// TestOracleWaitRacingClose pins the lifecycle edge: Wait calls in flight
// while Close runs concurrently must all return promptly — with nil (the
// build won the race), ErrClosed, or the aborted build's error — and never
// deadlock. Run under -race.
func TestOracleWaitRacingClose(t *testing.T) {
	for i := 0; i < 25; i++ {
		o := oracle.New(oracle.Config{Algorithm: "test-slow"})
		v, err := o.SetGraph(pathGraph(t, 8, 1))
		if err != nil {
			t.Fatal(err)
		}
		const waiters = 4
		results := make(chan error, waiters)
		var wg sync.WaitGroup
		for w := 0; w < waiters; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				results <- o.Wait(ctx, v)
			}()
		}
		if i%2 == 0 {
			time.Sleep(time.Duration(i) * time.Millisecond / 2)
		}
		o.Close()
		wg.Wait()
		close(results)
		for err := range results {
			switch {
			case err == nil:
			case errors.Is(err, oracle.ErrClosed):
			case errors.Is(err, context.Canceled):
				// The in-flight build was aborted by Close; Wait surfaces
				// that build's error.
			default:
				t.Fatalf("iteration %d: Wait returned %v", i, err)
			}
		}
	}
}
