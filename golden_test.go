package cliqueapsp

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/congestedclique/cliqueapsp/internal/registry"
)

// goldenAlgorithms are the built-in registry entries, in registration order.
// Test files register more algorithms at run time, always after these.
var goldenAlgorithms = []Algorithm{
	AlgConstant, AlgTradeoff, AlgSmallDiameter, AlgLargeBandwidth, AlgLogApprox, AlgExact,
}

// goldenModelCost pins the paper's cost model and the estimate for a fixed
// sweep: every built-in algorithm on RandomGraph(n, 100, seed) run with the
// same seed, plus the Theorem 1.1 pipeline at n=512. Each value is the
// modelCostDigest of the run. The totals, violation counts and distance
// checksums were generated from the simulator before its hot loops were
// rewritten; the phase segment names each phase by its pipeline checkpoint,
// with nested pipelines lifted by name. Any change to Rounds, Messages,
// Words, the violation count, a phase's Rounds/Messages/Words or a single
// distance fails here.
var goldenModelCost = []struct {
	alg    Algorithm
	n      int
	seed   int64
	digest string
}{
	{"constant", 64, 1,
		"rounds=265 messages=47389 words=74599 violations=0 init:0/0/0 theorem11/knearest:38/2268/26579 theorem11/skeleton:22/18241/19073 theorem11/thm81-on-skeleton:0/0/0 largebw/bootstrap:11/630/630 largebw/hopset:6/90/270 largebw/scaled-instances:0/0/0 smalldiam/bootstrap:11/630/630 smalldiam/reduce:76/11020/11479 smalldiam/final:70/12085/12548 largebw/skeleton:27/1928/2207 theorem11/translate:4/497/1183 dist=8b39146ab01e8c39"},
	{"constant", 64, 2,
		"rounds=408 messages=34959 words=71655 violations=0 init:0/0/0 theorem11/knearest:38/2268/26513 theorem11/skeleton:22/18463/19295 theorem11/thm81-on-skeleton:0/0/0 largebw/bootstrap:13/1026/1026 largebw/hopset:6/162/594 largebw/scaled-instances:0/0/0 smalldiam/bootstrap:13/1026/1026 smalldiam/reduce:194/5296/11954 smalldiam/final:91/3603/6946 largebw/skeleton:27/2621/3025 theorem11/translate:4/494/1276 dist=ff8e27d6ff7fb0c5"},
	{"constant", 256, 1,
		"rounds=391 messages=386420 words=1058910 violations=0 init:0/0/0 theorem11/knearest:48/28560/614966 theorem11/skeleton:22/278703/284079 theorem11/thm81-on-skeleton:0/0/0 largebw/bootstrap:11/6000/6000 largebw/hopset:6/600/3000 largebw/scaled-instances:0/0/0 smalldiam/bootstrap:11/6000/6000 smalldiam/reduce:180/26139/71409 smalldiam/final:82/19631/42275 largebw/skeleton:27/16731/18701 theorem11/translate:4/4056/12480 dist=8ec6da9c19b237ed"},
	{"constant", 256, 2,
		"rounds=391 messages=388873 words=1061802 violations=0 init:0/0/0 theorem11/knearest:48/28560/613558 theorem11/skeleton:22/278973/284349 theorem11/thm81-on-skeleton:0/0/0 largebw/bootstrap:11/6150/6150 largebw/hopset:6/615/3075 largebw/scaled-instances:0/0/0 smalldiam/bootstrap:11/6150/6150 smalldiam/reduce:180/26713/73022 smalldiam/final:82/21771/44978 largebw/skeleton:27/15886/17865 theorem11/translate:4/4055/12655 dist=d1da165acd4f4275"},
	{"tradeoff", 64, 1,
		"rounds=271 messages=46444 words=73654 violations=0 init:0/0/0 theorem11/knearest:38/2268/26579 theorem11/skeleton:22/18241/19073 theorem11/thm81-on-skeleton:0/0/0 largebw/bootstrap:11/630/630 largebw/hopset:6/90/270 largebw/scaled-instances:0/0/0 smalldiam/bootstrap:11/630/630 smalldiam/reduce:152/22160/23082 largebw/skeleton:27/1928/2207 theorem11/translate:4/497/1183 dist=8b39146ab01e8c39"},
	{"tradeoff", 64, 2,
		"rounds=319 messages=31698 words=65057 violations=0 init:0/0/0 theorem11/knearest:38/2268/26513 theorem11/skeleton:22/18463/19295 theorem11/thm81-on-skeleton:0/0/0 largebw/bootstrap:13/1026/1026 largebw/hopset:6/162/594 largebw/scaled-instances:0/0/0 smalldiam/bootstrap:13/1026/1026 smalldiam/reduce:194/5296/11954 largebw/skeleton:29/2963/3373 theorem11/translate:4/494/1276 dist=62eb7d81aba995e9"},
	{"tradeoff", 256, 1,
		"rounds=309 messages=366789 words=1016635 violations=0 init:0/0/0 theorem11/knearest:48/28560/614966 theorem11/skeleton:22/278703/284079 theorem11/thm81-on-skeleton:0/0/0 largebw/bootstrap:11/6000/6000 largebw/hopset:6/600/3000 largebw/scaled-instances:0/0/0 smalldiam/bootstrap:11/6000/6000 smalldiam/reduce:180/26139/71409 largebw/skeleton:27/16731/18701 theorem11/translate:4/4056/12480 dist=66e0e723cca334c9"},
	{"tradeoff", 256, 2,
		"rounds=309 messages=370020 words=1019778 violations=0 init:0/0/0 theorem11/knearest:48/28560/613558 theorem11/skeleton:22/278973/284349 theorem11/thm81-on-skeleton:0/0/0 largebw/bootstrap:11/6150/6150 largebw/hopset:6/615/3075 largebw/scaled-instances:0/0/0 smalldiam/bootstrap:11/6150/6150 smalldiam/reduce:180/26713/73022 largebw/skeleton:27/18804/20819 theorem11/translate:4/4055/12655 dist=13953e234f324abd"},
	{"smalldiameter", 64, 1,
		"rounds=383 messages=95148 words=271042 violations=0 init:0/0/0 smalldiam/bootstrap:17/13248/13248 smalldiam/reduce:244/55124/172470 smalldiam/final:122/26776/85324 dist=4506ae05b0130f65"},
	{"smalldiameter", 64, 2,
		"rounds=383 messages=97793 words=272309 violations=0 init:0/0/0 smalldiam/bootstrap:17/13824/13824 smalldiam/reduce:244/56452/172824 smalldiam/final:122/27517/85661 dist=0994874e37fc6945"},
	{"smalldiameter", 256, 1,
		"rounds=383 messages=1383149 words=4572781 violations=0 init:0/0/0 smalldiam/bootstrap:17/249600/249600 smalldiam/reduce:244/752581/2878641 smalldiam/final:122/380968/1444540 dist=0156fe2c79828e6d"},
	{"smalldiameter", 256, 2,
		"rounds=383 messages=1388802 words=4579046 violations=0 init:0/0/0 smalldiam/bootstrap:17/258048/258048 smalldiam/reduce:244/754200/2881202 smalldiam/final:122/376554/1439796 dist=4a5a092b0cd96ec9"},
	{"largebandwidth", 64, 1,
		"rounds=296 messages=169815 words=383658 violations=0 init:0/0/0 largebw/bootstrap:11/13248/13248 largebw/hopset:6/1344/7454 largebw/scaled-instances:0/0/0 smalldiam/bootstrap:11/13248/13248 smalldiam/reduce:166/57632/195136 smalldiam/final:75/40702/109347 largebw/skeleton:27/43641/45225 dist=6626e5d0de46a405"},
	{"largebandwidth", 64, 2,
		"rounds=296 messages=177380 words=390729 violations=0 init:0/0/0 largebw/bootstrap:11/13824/13824 largebw/hopset:6/1344/6894 largebw/scaled-instances:0/0/0 smalldiam/bootstrap:11/13824/13824 smalldiam/reduce:166/58912/196432 smalldiam/final:75/46027/114722 largebw/skeleton:27/43449/45033 dist=47a1bfc9fdfda405"},
	{"largebandwidth", 256, 1,
		"rounds=296 messages=3163073 words=7140970 violations=0 init:0/0/0 largebw/bootstrap:11/249600/249600 largebw/hopset:6/11520/64178 largebw/scaled-instances:0/0/0 smalldiam/bootstrap:11/249600/249600 smalldiam/reduce:166/776361/3383813 smalldiam/final:75/1043354/2347341 largebw/skeleton:27/832638/846438 dist=57b737272a24747d"},
	{"largebandwidth", 256, 2,
		"rounds=296 messages=3116075 words=7093490 violations=0 init:0/0/0 largebw/bootstrap:11/258048/258048 largebw/hopset:6/11520/64566 largebw/scaled-instances:0/0/0 smalldiam/bootstrap:11/258048/258048 smalldiam/reduce:166/777636/3384748 smalldiam/final:75/888240/2191175 largebw/skeleton:27/922583/936905 dist=880d6a543642c749"},
	{"logapprox", 64, 1,
		"rounds=17 messages=13248 words=13248 violations=0 init:0/0/0 logapprox:17/13248/13248 dist=d3fe73a89a59c485"},
	{"logapprox", 64, 2,
		"rounds=17 messages=13824 words=13824 violations=0 init:0/0/0 logapprox:17/13824/13824 dist=08e1269b8a797ba5"},
	{"logapprox", 256, 1,
		"rounds=17 messages=249600 words=249600 violations=0 init:0/0/0 logapprox:17/249600/249600 dist=ae9a66d47679fd9d"},
	{"logapprox", 256, 2,
		"rounds=17 messages=258048 words=258048 violations=0 init:0/0/0 logapprox:17/258048/258048 dist=2543fbfbb27fa48d"},
	{"exact", 64, 1,
		"rounds=20 messages=0 words=0 violations=0 init:0/0/0 exact-squaring:20/0/0 dist=e9be4548a6a83265"},
	{"exact", 64, 2,
		"rounds=20 messages=0 words=0 violations=0 init:0/0/0 exact-squaring:20/0/0 dist=2fe4d4022c138c65"},
	{"exact", 256, 1,
		"rounds=35 messages=0 words=0 violations=0 init:0/0/0 exact-squaring:35/0/0 dist=e4760b40ea4ed471"},
	{"exact", 256, 2,
		"rounds=35 messages=0 words=0 violations=0 init:0/0/0 exact-squaring:35/0/0 dist=f1ef296a7428d6f1"},
	{"constant", 512, 1,
		"rounds=409 messages=1441947 words=4616232 violations=0 init:0/0/0 theorem11/knearest:64/104060/2992748 theorem11/skeleton:22/1100336/1114160 theorem11/thm81-on-skeleton:0/0/0 largebw/bootstrap:11/20400/20400 largebw/hopset:6/1428/9044 largebw/scaled-instances:0/0/0 smalldiam/bootstrap:11/20400/20400 smalldiam/reduce:180/70914/223538 smalldiam/final:84/67020/143455 largebw/skeleton:27/46193/51543 theorem11/translate:4/11196/40944 dist=764f4981cc62a52d"},
}

// modelCostDigest renders a run's model cost and an FNV-64a checksum of its
// distance matrix (row-major, little-endian int64) as one line.
func modelCostDigest(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d messages=%d words=%d violations=%d",
		res.Rounds, res.Messages, res.Words, len(res.Violations))
	for _, p := range res.Phases {
		fmt.Fprintf(&b, " %s:%d/%d/%d", p.Name, p.Rounds, p.Messages, p.Words)
	}
	h := fnv.New64a()
	var buf [8]byte
	n := res.Distances.N()
	for u := 0; u < n; u++ {
		for _, d := range res.Distances.Row(u) {
			binary.LittleEndian.PutUint64(buf[:], uint64(d))
			h.Write(buf[:])
		}
	}
	fmt.Fprintf(&b, " dist=%016x", h.Sum64())
	return b.String()
}

// goldenRun is one golden case's run: its graph, its result, and the phase
// names its Progress callback reported.
type goldenRun struct {
	g        *Graph
	res      *Result
	reported map[string]bool
	err      error
}

var (
	goldenOnce sync.Once
	goldenRuns []goldenRun
)

// goldenSweep runs every golden case once per test binary; the tests that
// read the sweep share the runs, so adding one costs no engine time.
func goldenSweep() []goldenRun {
	goldenOnce.Do(func() {
		eng := New()
		for _, c := range goldenModelCost {
			r := goldenRun{g: RandomGraph(c.n, 100, c.seed), reported: map[string]bool{}}
			r.res, r.err = eng.Run(context.Background(), r.g, WithAlgorithm(c.alg), WithSeed(c.seed),
				WithProgress(func(phase string) { r.reported[phase] = true }))
			goldenRuns = append(goldenRuns, r)
		}
	})
	return goldenRuns
}

func TestGoldenModelCost(t *testing.T) {
	if got := Algorithms(); len(got) < len(goldenAlgorithms) ||
		fmt.Sprint(got[:len(goldenAlgorithms)]) != fmt.Sprint(goldenAlgorithms) {
		t.Fatalf("built-in algorithms changed: registry starts %v, golden table covers %v", got, goldenAlgorithms)
	}
	covered := map[Algorithm]bool{}
	for _, c := range goldenModelCost {
		covered[c.alg] = true
	}
	for _, a := range goldenAlgorithms {
		if !covered[a] {
			t.Fatalf("golden table has no case for %q", a)
		}
	}
	for i, c := range goldenModelCost {
		r := goldenSweep()[i]
		t.Run(fmt.Sprintf("%s/n=%d/seed=%d", c.alg, c.n, c.seed), func(t *testing.T) {
			if r.err != nil {
				t.Fatal(r.err)
			}
			if got := modelCostDigest(r.res); got != c.digest {
				t.Fatalf("model cost or distances changed\n got  %s\n want %s", got, c.digest)
			}
		})
	}
}

// TestPhasesAreProgressNames checks the one phase vocabulary on the golden
// sweep, every built-in on n ≤ 8 and a zero-weight run: the phase breakdown
// sums to the run's totals, and every phase that costs anything carries a
// name the run's Progress callback reported, so wall-clock and model-cost
// breakdowns line up phase for phase.
func TestPhasesAreProgressNames(t *testing.T) {
	type run struct {
		name string
		g    *Graph
		alg  Algorithm
		seed int64
	}
	var runs []run
	// Graphs small enough for a pipeline's up-front brute force.
	for _, alg := range goldenAlgorithms {
		for _, n := range []int{2, 4, 8} {
			runs = append(runs, run{fmt.Sprintf("%s/n=%d/seed=1", alg, n), RandomGraph(n, 100, 1), alg, 1})
		}
	}
	zc, err := Generate("zeroclusters", 64, 1, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, run{"constant/zeroclusters/n=64", zc, AlgConstant, 3})

	eng := New()
	check := func(t *testing.T, res *Result, reported map[string]bool) {
		t.Helper()
		var rounds, messages, words int64
		for _, p := range res.Phases {
			rounds += p.Rounds
			messages += p.Messages
			words += p.Words
			if (p.Rounds != 0 || p.Messages != 0 || p.Words != 0) && !reported[p.Name] {
				t.Errorf("phase %q costs %d/%d/%d but no progress event names it (reported %v)",
					p.Name, p.Rounds, p.Messages, p.Words, reported)
			}
		}
		if rounds != res.Rounds || messages != res.Messages || words != res.Words {
			t.Fatalf("phases sum to %d/%d/%d, totals are %d/%d/%d",
				rounds, messages, words, res.Rounds, res.Messages, res.Words)
		}
	}
	for i, c := range goldenModelCost {
		r := goldenSweep()[i]
		t.Run(fmt.Sprintf("%s/n=%d/seed=%d", c.alg, c.n, c.seed), func(t *testing.T) {
			if r.err != nil {
				t.Fatal(r.err)
			}
			check(t, r.res, r.reported)
		})
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			reported := map[string]bool{}
			res, err := eng.Run(context.Background(), r.g, WithAlgorithm(r.alg), WithSeed(r.seed),
				WithProgress(func(phase string) { reported[phase] = true }))
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, reported)
		})
	}
}

// TestPhaseCapacity checks, phase by phase on the golden sweep, that the
// simulator never charges a phase fewer rounds than the Congested Clique
// needs to carry the phase's traffic. B is the per-pair bandwidth of the
// algorithm's model (registry BandwidthFor: 1 word, or log⁴n words).
//
// In one round each of the n(n−1) ordered pairs carries at most B words,
// and each node receives at most (n−1)·B ≤ n·B words. So a phase of R
// rounds moves Words ≤ R·n(n−1)·B, and no node receives more than R·n·B
// words in one operation of it (MaxRecv). The charges respect this:
//   - Route under Lenzen (Lemma 2.1) charges ⌈s/nB⌉ + ⌈r/nB⌉ rounds for
//     per-node maxima s, r, and under CFG+20 (Lemma 2.2) 1 + ⌈r/nB⌉. Both
//     cover r; and Words ≤ n·min(s, r) ≤ n²B·⌈r/nB⌉, at most R·n(n−1)·B for
//     Lenzen (R ≥ 2 ceilings) and for CFG+20 while R ≤ n.
//   - Broadcast of T words charges 1 + 2⌈T/nB⌉ rounds for T·n words and a
//     per-node load of T, both within the bounds for n ≥ 2.
//   - A subclique of m nodes at bandwidth b lifts each child round into
//     ⌈m·b/(nB)⌉ parent rounds (Lemma 2.1). A child round's m(m−1)·b words
//     and m·b per-node words then fit the parent rounds, so the bounds
//     survive lift even though it carries the loads unscaled.
//   - Parallel lanes share B (lanes·laneBW ≤ B, else a violation) and the
//     parent pays the slowest lane's rounds, so every lane's traffic fits.
//
// MaxSend is not bounded this way: Lemma 2.2 charges nothing for the send
// side, because a sender whose messages follow from little local state
// offloads the duplication to helper nodes. A node's logical send volume
// may then exceed R·n·B, so MaxSend's share of capacity is logged beside
// the others but not asserted.
func TestPhaseCapacity(t *testing.T) {
	var worstWords, worstRecv, worstSend float64 // each load over its capacity
	for i, c := range goldenModelCost {
		r := goldenSweep()[i]
		if r.err != nil {
			t.Fatal(r.err)
		}
		spec, ok := registry.Lookup(string(c.alg))
		if !ok {
			t.Fatalf("%s not registered", c.alg)
		}
		n, b := int64(c.n), int64(spec.BandwidthFor(c.n, 0))
		for _, p := range r.res.Phases {
			if p.Words > p.Rounds*n*(n-1)*b || p.MaxRecv > p.Rounds*n*b {
				t.Errorf("%s n=%d seed=%d phase %s: %d words, MaxRecv %d in %d rounds exceed the capacity of n=%d, B=%d",
					c.alg, c.n, c.seed, p.Name, p.Words, p.MaxRecv, p.Rounds, n, b)
			}
			if p.Rounds > 0 {
				perNode := float64(p.Rounds * n * b)
				worstWords = math.Max(worstWords, float64(p.Words)/(perNode*float64(n-1)))
				worstRecv = math.Max(worstRecv, float64(p.MaxRecv)/perNode)
				worstSend = math.Max(worstSend, float64(p.MaxSend)/perNode)
			}
		}
	}
	t.Logf("largest share of capacity in any phase: words %.3f, MaxRecv %.3f, MaxSend %.3f",
		worstWords, worstRecv, worstSend)
}
