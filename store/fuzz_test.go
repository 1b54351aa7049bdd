package store_test

import (
	"bytes"
	"math"
	"testing"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/store"
)

// FuzzDecodeLayout checks the cold tier's only way of locating rows against
// the full decoder: DecodeLayout never panics, and whatever Decode accepts,
// DecodeLayout accepts too, with the same provenance and a Size equal to
// the input's length — so the cold tier's file-size check never refuses a
// file the hot path decodes.
func FuzzDecodeLayout(f *testing.F) {
	snap := buildSnapshot(f, cliqueapsp.AlgExact, cliqueapsp.RandomGraph(5, 6, 1), 3)
	snap.BaseVersion, snap.DeltaCount = 2, 1
	v2 := encodeToBytes(f, snap)
	f.Add(v2)
	f.Add(formatV1Bytes(v2))
	f.Add(v2[:len(v2)/2])
	f.Add([]byte("not a snapshot"))

	f.Fuzz(func(t *testing.T, input []byte) {
		ix, lerr := store.DecodeLayout(bytes.NewReader(input))
		s, err := store.Decode(bytes.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if lerr != nil {
			t.Fatalf("Decode accepted what DecodeLayout rejected: %v", lerr)
		}
		if ix.Size != int64(len(input)) {
			t.Fatalf("layout Size %d for a %d-byte snapshot", ix.Size, len(input))
		}
		if ix.Version != s.Version || ix.Algorithm != s.Algorithm || ix.Engine != s.Engine ||
			ix.Seed != s.Seed || ix.SeedPinned != s.SeedPinned ||
			math.Float64bits(ix.FactorBound) != math.Float64bits(s.FactorBound) ||
			math.Float64bits(ix.Eps) != math.Float64bits(s.Eps) ||
			ix.BaseVersion != s.BaseVersion || ix.DeltaCount != s.DeltaCount ||
			ix.N != s.Graph.N() {
			t.Fatalf("layout provenance %+v disagrees with the decoded snapshot", ix)
		}
	})
}
