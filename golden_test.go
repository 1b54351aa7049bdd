package cliqueapsp

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// goldenAlgorithms are the built-in registry entries, in registration order.
// Test files register more algorithms at run time, always after these.
var goldenAlgorithms = []Algorithm{
	AlgConstant, AlgTradeoff, AlgSmallDiameter, AlgLargeBandwidth, AlgLogApprox, AlgExact,
}

// goldenModelCost pins the paper's cost model and the estimate for a fixed
// sweep: every built-in algorithm on RandomGraph(n, 100, seed) run with the
// same seed, plus the Theorem 1.1 pipeline at n=512. Each value is the
// modelCostDigest of the run. The digests were generated from the
// simulator before its hot loops were rewritten, so any change to
// Rounds, Messages, Words, the violation count, a phase's
// Rounds/Messages/Words or a single distance fails here.
var goldenModelCost = []struct {
	alg    Algorithm
	n      int
	seed   int64
	digest string
}{
	{"constant", 64, 1,
		"rounds=265 messages=47389 words=74599 violations=0 init:0/0/0 theorem11:0/0/0 knearest:38/2268/26579 skeleton:22/18241/19073 thm81-on-skeleton:201/26383/27764 skeleton-translate:4/497/1183 dist=8b39146ab01e8c39"},
	{"constant", 64, 2,
		"rounds=408 messages=34959 words=71655 violations=0 init:0/0/0 theorem11:0/0/0 knearest:38/2268/26513 skeleton:22/18463/19295 thm81-on-skeleton:344/13734/24571 skeleton-translate:4/494/1276 dist=ff8e27d6ff7fb0c5"},
	{"constant", 256, 1,
		"rounds=391 messages=386420 words=1058910 violations=0 init:0/0/0 theorem11:0/0/0 knearest:48/28560/614966 skeleton:22/278703/284079 thm81-on-skeleton:317/75101/147385 skeleton-translate:4/4056/12480 dist=8ec6da9c19b237ed"},
	{"constant", 256, 2,
		"rounds=391 messages=388873 words=1061802 violations=0 init:0/0/0 theorem11:0/0/0 knearest:48/28560/613558 skeleton:22/278973/284349 thm81-on-skeleton:317/77285/151240 skeleton-translate:4/4055/12655 dist=d1da165acd4f4275"},
	{"tradeoff", 64, 1,
		"rounds=271 messages=46444 words=73654 violations=0 init:0/0/0 theorem11:0/0/0 knearest:38/2268/26579 skeleton:22/18241/19073 thm81-on-skeleton:207/25438/26819 skeleton-translate:4/497/1183 dist=8b39146ab01e8c39"},
	{"tradeoff", 64, 2,
		"rounds=319 messages=31698 words=65057 violations=0 init:0/0/0 theorem11:0/0/0 knearest:38/2268/26513 skeleton:22/18463/19295 thm81-on-skeleton:255/10473/17973 skeleton-translate:4/494/1276 dist=62eb7d81aba995e9"},
	{"tradeoff", 256, 1,
		"rounds=309 messages=366789 words=1016635 violations=0 init:0/0/0 theorem11:0/0/0 knearest:48/28560/614966 skeleton:22/278703/284079 thm81-on-skeleton:235/55470/105110 skeleton-translate:4/4056/12480 dist=66e0e723cca334c9"},
	{"tradeoff", 256, 2,
		"rounds=309 messages=370020 words=1019778 violations=0 init:0/0/0 theorem11:0/0/0 knearest:48/28560/613558 skeleton:22/278973/284349 thm81-on-skeleton:235/58432/109216 skeleton-translate:4/4055/12655 dist=13953e234f324abd"},
	{"smalldiameter", 64, 1,
		"rounds=383 messages=95148 words=271042 violations=0 init:0/0/0 logapprox:17/13248/13248 hopset:21/4032/22290 knearest:234/13608/166698 skeleton:99/62769/65265 skeleton-translate:12/1491/3541 dist=4506ae05b0130f65"},
	{"smalldiameter", 64, 2,
		"rounds=383 messages=97793 words=272309 violations=0 init:0/0/0 logapprox:17/13824/13824 hopset:21/4032/20774 knearest:234/13608/166698 skeleton:99/64842/67338 skeleton-translate:12/1487/3675 dist=0994874e37fc6945"},
	{"smalldiameter", 256, 1,
		"rounds=383 messages=1383149 words=4572781 violations=0 init:0/0/0 logapprox:17/249600/249600 hopset:21/34560/193658 knearest:234/128520/3116610 skeleton:99/958307/974435 skeleton-translate:12/12162/38478 dist=0156fe2c79828e6d"},
	{"smalldiameter", 256, 2,
		"rounds=383 messages=1388802 words=4579046 violations=0 init:0/0/0 logapprox:17/258048/258048 hopset:21/34560/195146 knearest:234/128520/3116610 skeleton:99/955507/971635 skeleton-translate:12/12167/37607 dist=4a5a092b0cd96ec9"},
	{"largebandwidth", 64, 1,
		"rounds=296 messages=169815 words=383658 violations=0 init:0/0/0 largebw:0/0/0 logapprox:11/13248/13248 hopset:258/112926/325185 skeleton:20/18378/19210 bruteforce:3/24768/24768 skeleton-translate:4/495/1247 dist=6626e5d0de46a405"},
	{"largebandwidth", 64, 2,
		"rounds=296 messages=177380 words=390729 violations=0 init:0/0/0 largebw:0/0/0 logapprox:11/13824/13824 hopset:258/120107/331872 skeleton:20/18378/19210 bruteforce:3/24576/24576 skeleton-translate:4/495/1247 dist=47a1bfc9fdfda405"},
	{"largebandwidth", 256, 1,
		"rounds=296 messages=3163073 words=7140970 violations=0 init:0/0/0 largebw:0/0/0 logapprox:11/249600/249600 hopset:258/2080835/6044932 skeleton:20/278694/284070 bruteforce:3/549888/549888 skeleton-translate:4/4056/12480 dist=57b737272a24747d"},
	{"largebandwidth", 256, 2,
		"rounds=296 messages=3116075 words=7093490 violations=0 init:0/0/0 largebw:0/0/0 logapprox:11/258048/258048 hopset:258/1935444/5898537 skeleton:20/279554/284930 bruteforce:3/638976/638976 skeleton-translate:4/4053/12999 dist=880d6a543642c749"},
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
		"rounds=409 messages=1441947 words=4616232 violations=0 init:0/0/0 theorem11:0/0/0 knearest:64/104060/2992748 skeleton:22/1100336/1114160 thm81-on-skeleton:319/226355/468380 skeleton-translate:4/11196/40944 dist=764f4981cc62a52d"},
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
	eng := New()
	for _, c := range goldenModelCost {
		c := c
		t.Run(fmt.Sprintf("%s/n=%d/seed=%d", c.alg, c.n, c.seed), func(t *testing.T) {
			res, err := eng.Run(context.Background(), RandomGraph(c.n, 100, c.seed),
				WithAlgorithm(c.alg), WithSeed(c.seed))
			if err != nil {
				t.Fatal(err)
			}
			if got := modelCostDigest(res); got != c.digest {
				t.Fatalf("model cost or distances changed\n got  %s\n want %s", got, c.digest)
			}
		})
	}
}
