package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/oracle"
)

// workload is one traffic mix the benchmark drives against ccserve. The
// fields are the whole definition: everything else (graphs, pair streams,
// delta streams, the tenant seed) is derived from the workload seed.
type workload struct {
	name string
	n    int
	alg  string
	// cold serves the tenant from the disk tier: a data dir is prepared
	// first, then restored by a ccserve whose node budget is below n.
	cold bool
	// zipf draws query sources from a Zipf(s=1) law over a seeded
	// permutation instead of uniformly.
	zipf bool
	// uploads makes the primary op a graph upload (?wait=1) cycling through
	// graphCount seeded graphs, with no reads.
	uploads bool
	// patches adds a single writer sending single-edge PATCHes (?wait=1)
	// beside the reader, against a persisted tenant.
	patches bool
	// kernelPar caps the shared-pool workers a build's kernels may use
	// (ccserve -kernelpar; 0 = the whole pool).
	kernelPar int
}

var workloads = []workload{
	{name: "serve-hot", n: 1024, alg: "constant"},
	{name: "serve-cold", n: 1024, alg: "constant", cold: true, zipf: true},
	{name: "rebuild", n: 512, alg: "constant", uploads: true},
	// Builds get one kernel worker beside patch-mixed's reader: with the
	// whole pool a fallback build starves the reader, whose rate then
	// tracks how many fallbacks the seed's delta stream draws.
	{name: "patch-mixed", n: 512, alg: "exact", patches: true, kernelPar: 1},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

const (
	maxWeight  = 100  // edge weights are uniform in [1, maxWeight]
	opCycle    = 4096 // read ops are drawn once and replayed in this cycle
	batchPairs = 64
	graphCount = 8 // distinct graphs the rebuild workload cycles through
	// patchesPerSecond sizes patch-mixed's fixed delta stream: the run
	// replays seconds×patchesPerSecond single-edge deltas, which takes about
	// the requested time on a 2-core machine, and at 8 seconds leaves the
	// p90 of the writes ten samples beyond it. The count, not the clock,
	// ends the stream, so the repair/fallback split of a (seed, seconds)
	// pair repeats exactly.
	patchesPerSecond = 13
	stretchPairs     = 1024 // pairs sampled for stretch_mean after set-up
)

type opKind uint8

const (
	opDist opKind = iota
	opBatch
	opPath
)

func (k opKind) String() string { return [...]string{"dist", "batch", "path"}[k] }

// op is one pre-encoded read request, so no encoding runs in the timed loop.
type op struct {
	kind  opKind
	pairs []oracle.Pair
	path  string // URL path and query
	body  []byte // request body (batch only)
}

// inputs are everything a run sends, derived from the workload seed alone.
type inputs struct {
	graphs     []*cliqueapsp.Graph // graphs[0] is the set-up graph
	tenantSeed int64               // pinned engine seed of the tenant
	ops        []op                // the read-op cycle
	stretch    []oracle.Pair       // pairs sampled for stretch_mean
	deltas     []cliqueapsp.EdgeDelta
	warm       []op // warm-up reads, run before the window
}

func tenantPath(suffix string) string { return "/v1/graphs/" + tenantName + suffix }

// makeInputs derives a run's inputs from seed. patches is the length of the
// delta stream (patch-mixed only).
func (w workload) makeInputs(seed int64, patches int) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{tenantSeed: rng.Int63()>>1 | 1}
	graphs := 1
	if w.uploads {
		graphs = graphCount
	}
	for i := 0; i < graphs; i++ {
		in.graphs = append(in.graphs, cliqueapsp.RandomGraph(w.n, maxWeight, rng.Int63()))
	}
	source := uniformSource(rng, w.n)
	if w.zipf {
		source = zipfSource(rng, w.n)
	}
	pair := func() oracle.Pair {
		u := source()
		v := rng.Intn(w.n - 1)
		if v >= u {
			v++
		}
		return oracle.Pair{U: u, V: v}
	}
	for i := 0; i < opCycle; i++ {
		switch r := rng.Intn(10); {
		case r < 7:
			in.ops = append(in.ops, pairOp(opDist, pair()))
		case r < 9:
			ps := make([]oracle.Pair, batchPairs)
			for j := range ps {
				ps[j] = pair()
			}
			in.ops = append(in.ops, batchOp(ps))
		default:
			in.ops = append(in.ops, pairOp(opPath, pair()))
		}
	}
	uniform := uniformSource(rng, w.n)
	for i := 0; i < stretchPairs; i++ {
		u := uniform()
		v := rng.Intn(w.n - 1)
		if v >= u {
			v++
		}
		in.stretch = append(in.stretch, oracle.Pair{U: u, V: v})
	}
	if w.patches {
		in.deltas = cliqueapsp.RandomDeltas(in.graphs[0], patches, maxWeight, rng.Int63()).Edges
	}
	in.warm = w.warmOps(in.ops)
	return in
}

// warmOps are the reads that bring the serving caches to steady state before
// timing: a path from every source fills the next-hop memo of a hot tenant,
// and one pass over the op cycle settles a cold tenant's row cache.
func (w workload) warmOps(ops []op) []op {
	if w.cold {
		return ops
	}
	warm := make([]op, w.n)
	for u := range warm {
		warm[u] = pairOp(opPath, oracle.Pair{U: u, V: (u + 1) % w.n})
	}
	return warm
}

func (o op) method() string {
	if o.kind == opBatch {
		return http.MethodPost
	}
	return http.MethodGet
}

func pairOp(k opKind, p oracle.Pair) op {
	return op{kind: k, pairs: []oracle.Pair{p},
		path: fmt.Sprintf("%s?u=%d&v=%d", tenantPath("/"+k.String()), p.U, p.V)}
}

func batchOp(ps []oracle.Pair) op {
	arr := make([][2]int, len(ps))
	for i, p := range ps {
		arr[i] = [2]int{p.U, p.V}
	}
	body, err := json.Marshal(map[string]any{"pairs": arr})
	if err != nil {
		panic(err) // unreachable: ints always encode
	}
	return op{kind: opBatch, pairs: ps, path: tenantPath("/batch"), body: body}
}

func uniformSource(rng *rand.Rand, n int) func() int {
	return func() int { return rng.Intn(n) }
}

// zipfSource draws rank k with probability proportional to 1/(k+1) and maps
// it through a seeded permutation, so the hot sources differ per seed but
// the skew does not. math/rand's Zipf needs s > 1, hence the explicit CDF.
func zipfSource(rng *rand.Rand, n int) func() int {
	perm := rng.Perm(n)
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / float64(k+1)
		cdf[k] = sum
	}
	return func() int {
		x := rng.Float64() * sum
		return perm[sort.SearchFloat64s(cdf, x)]
	}
}

// graphJSON encodes g as an upload body.
func graphJSON(g *cliqueapsp.Graph) []byte {
	edges := g.Edges()
	arr := make([][3]int64, len(edges))
	for i, e := range edges {
		arr[i] = [3]int64{int64(e.U), int64(e.V), e.W}
	}
	body, err := json.Marshal(map[string]any{"n": g.N(), "edges": arr})
	if err != nil {
		panic(err) // unreachable: ints always encode
	}
	return body
}

// deltaJSON encodes one single-edge PATCH body.
func deltaJSON(e cliqueapsp.EdgeDelta) []byte {
	body, err := json.Marshal(map[string]any{"edges": []cliqueapsp.EdgeDelta{e}})
	if err != nil {
		panic(err) // unreachable
	}
	return body
}
