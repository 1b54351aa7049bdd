package store_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"testing"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/store"
)

// buildSnapshot runs one registered algorithm through the Engine and wraps
// the published result exactly the way the oracle persistence hook does.
func buildSnapshot(t testing.TB, alg cliqueapsp.Algorithm, g *cliqueapsp.Graph, version uint64) *store.Snapshot {
	t.Helper()
	eng := cliqueapsp.New()
	res, err := eng.Run(context.Background(), g,
		cliqueapsp.WithAlgorithm(alg), cliqueapsp.WithSeed(7), cliqueapsp.WithEps(0.25))
	if err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
	return &store.Snapshot{
		Version:     version,
		Algorithm:   string(res.Algorithm),
		FactorBound: res.FactorBound,
		Eps:         0.25,
		Seed:        res.Seed,
		SeedPinned:  true, // buildSnapshot pins with WithSeed(7) above
		Engine:      cliqueapsp.EngineVersion,
		Graph:       g,
		Distances:   res.Distances,
	}
}

func encodeToBytes(t testing.TB, s *store.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := store.Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameDistances(a, b *cliqueapsp.DistanceMatrix) bool {
	if a.N() != b.N() {
		return false
	}
	for u := 0; u < a.N(); u++ {
		for v := 0; v < a.N(); v++ {
			if a.At(u, v) != b.At(u, v) {
				return false
			}
		}
	}
	return true
}

// TestCodecRoundTripEveryAlgorithm is the round-trip property of the
// acceptance criteria: for every registered algorithm, encode→decode of a
// published snapshot reproduces identical distances, provenance and
// version.
func TestCodecRoundTripEveryAlgorithm(t *testing.T) {
	g := cliqueapsp.RandomGraph(16, 12, 3)
	for i, alg := range cliqueapsp.Algorithms() {
		version := uint64(i + 1)
		snap := buildSnapshot(t, alg, g, version)
		got, err := store.Decode(bytes.NewReader(encodeToBytes(t, snap)))
		if err != nil {
			t.Fatalf("%s: decode: %v", alg, err)
		}
		if got.Version != version || got.Algorithm != string(alg) || got.Seed != snap.Seed ||
			got.Eps != snap.Eps || got.FactorBound != snap.FactorBound ||
			got.Engine != cliqueapsp.EngineVersion || got.SeedPinned != snap.SeedPinned {
			t.Fatalf("%s: provenance %+v does not match the encoded snapshot", alg, got)
		}
		if got.Graph.N() != g.N() || got.Graph.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: graph came back %d nodes / %d edges, want %d / %d",
				alg, got.Graph.N(), got.Graph.NumEdges(), g.N(), g.NumEdges())
		}
		if !sameDistances(got.Distances, snap.Distances) {
			t.Fatalf("%s: decoded distances differ from the encoded estimate", alg)
		}
	}
}

func TestCodecRoundTripUnreachableAndZeroWeights(t *testing.T) {
	// Two components and zero-weight edges: Inf entries and the Theorem 2.1
	// path must both survive the trip.
	g := cliqueapsp.NewGraph(5)
	for _, e := range [][3]int64{{0, 1, 0}, {1, 2, 3}, {3, 4, 1}} {
		if err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	snap := buildSnapshot(t, cliqueapsp.AlgExact, g, 9)
	got, err := store.Decode(bytes.NewReader(encodeToBytes(t, snap)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Distances.Reachable(0, 3) {
		t.Fatal("cross-component pair decoded as reachable")
	}
	if d := got.Distances.At(0, 2); d != 3 {
		t.Fatalf("d(0,2) = %d after round trip, want 3", d)
	}
}

// TestCodecRoundTripRepairProvenance: the format-2 fields — the base version
// a repaired snapshot was patched from and its delta count — survive the trip.
func TestCodecRoundTripRepairProvenance(t *testing.T) {
	snap := buildSnapshot(t, cliqueapsp.AlgExact, cliqueapsp.RandomGraph(12, 9, 1), 42)
	snap.BaseVersion = 41
	snap.DeltaCount = 3
	got, err := store.Decode(bytes.NewReader(encodeToBytes(t, snap)))
	if err != nil {
		t.Fatal(err)
	}
	if got.BaseVersion != 41 || got.DeltaCount != 3 {
		t.Fatalf("repair provenance (%d, %d) after round trip, want (41, 3)", got.BaseVersion, got.DeltaCount)
	}
	snap.DeltaCount = -1
	if err := store.Encode(&bytes.Buffer{}, snap); err == nil {
		t.Fatal("negative delta count encoded")
	}
}

// formatV1Bytes rewrites a format-2 encoding as the pre-repair codec
// (format 1, no provenance block) would have written it: the 12-byte
// provenance block is dropped and format and checksum are restamped.
func formatV1Bytes(raw []byte) []byte {
	// Layout prefix: magic(6) format(2) version(8) seed(8) factor(8) eps(8)
	// flags(4) — the format-2 provenance block sits at [44:56).
	const provOff = 6 + 2 + 8 + 8 + 8 + 8 + 4
	v1 := append([]byte(nil), raw[:provOff]...)
	v1 = append(v1, raw[provOff+12:len(raw)-4]...)
	binary.LittleEndian.PutUint16(v1[6:8], 1)
	sum := crc32.Checksum(v1, crc32.MakeTable(crc32.Castagnoli))
	return binary.LittleEndian.AppendUint32(v1, sum)
}

// TestDecodeFormatV1Compat: files written by the pre-repair codec (format 1,
// no provenance block) must still decode, with zero repair provenance.
func TestDecodeFormatV1Compat(t *testing.T) {
	snap := buildSnapshot(t, cliqueapsp.AlgExact, cliqueapsp.RandomGraph(12, 9, 1), 7)
	v1 := formatV1Bytes(encodeToBytes(t, snap))

	got, err := store.Decode(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("format-1 decode: %v", err)
	}
	if got.Version != 7 || got.Algorithm != snap.Algorithm || got.Seed != snap.Seed {
		t.Fatalf("format-1 provenance %+v does not match", got)
	}
	if got.BaseVersion != 0 || got.DeltaCount != 0 {
		t.Fatalf("format-1 repair provenance (%d, %d), want zeros", got.BaseVersion, got.DeltaCount)
	}
	if !sameDistances(got.Distances, snap.Distances) {
		t.Fatal("format-1 distances differ")
	}
}

func TestDecodeTruncated(t *testing.T) {
	snap := buildSnapshot(t, cliqueapsp.AlgExact, cliqueapsp.RandomGraph(12, 9, 1), 1)
	raw := encodeToBytes(t, snap)
	for _, cut := range []int{0, 3, 9, 40, len(raw) / 2, len(raw) - 5, len(raw) - 1} {
		if _, err := store.Decode(bytes.NewReader(raw[:cut])); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("decode of %d/%d bytes: err %v, want ErrCorrupt", cut, len(raw), err)
		}
	}
}

// TestDecodeTrailingBytes: the checksum trailer ends the file, so a file
// longer than its header implies is corrupt — the same rule the cold tier's
// size check applies, so hot and cold restores agree on which files load.
func TestDecodeTrailingBytes(t *testing.T) {
	snap := buildSnapshot(t, cliqueapsp.AlgExact, cliqueapsp.RandomGraph(12, 9, 1), 1)
	raw := append(encodeToBytes(t, snap), 0)
	if _, err := store.Decode(bytes.NewReader(raw)); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("decode with a trailing byte: err %v, want ErrCorrupt", err)
	}
}

// unsized hides every method of its reader but Read, so Decode cannot tell
// the stream's length up front, as with a pipe or a network body.
type unsized struct{ r io.Reader }

func (u unsized) Read(p []byte) (int, error) { return u.r.Read(p) }

// TestDecodeChecksSizeBeforeAllocating: a header-only stream claiming
// n=4096 promises a 128 MiB matrix. Decode must reject it with ErrCorrupt,
// allocating next to nothing, whether the stream tells its length or not.
func TestDecodeChecksSizeBeforeAllocating(t *testing.T) {
	snap := buildSnapshot(t, cliqueapsp.AlgExact, cliqueapsp.NewGraph(1), 1)
	ix, err := store.IndexOf(snap)
	if err != nil {
		t.Fatal(err)
	}
	// With no edges the header ends where the rows begin, on n then m.
	header := encodeToBytes(t, snap)[:ix.RowOffset]
	binary.LittleEndian.PutUint32(header[len(header)-8:], 4096)
	for name, r := range map[string]io.Reader{
		"sized":   bytes.NewReader(header),
		"unsized": unsized{bytes.NewReader(header)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := store.Decode(r)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("%s: decode of a %d-byte stream claiming n=4096: %v, want ErrCorrupt", name, len(header), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: rejecting a %d-byte stream allocated %d bytes", name, len(header), grew)
		}
	}
}

// TestDecodeUnsizedStream: a stream that cannot tell its length decodes
// exactly as a sized one, and is held to the same length rule.
func TestDecodeUnsizedStream(t *testing.T) {
	snap := buildSnapshot(t, cliqueapsp.AlgExact, cliqueapsp.RandomGraph(12, 9, 1), 1)
	raw := encodeToBytes(t, snap)
	got, err := store.Decode(unsized{bytes.NewReader(raw)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != snap.Version || got.Graph.NumEdges() != snap.Graph.NumEdges() || !sameDistances(got.Distances, snap.Distances) {
		t.Fatalf("unsized decode %+v differs from the encoded snapshot", got)
	}
	for _, bad := range [][]byte{raw[:len(raw)-1], append(append([]byte(nil), raw...), 0)} {
		if _, err := store.Decode(unsized{bytes.NewReader(bad)}); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("unsized decode of %d/%d bytes: %v, want ErrCorrupt", len(bad), len(raw), err)
		}
	}
}

func TestDecodeFlippedByte(t *testing.T) {
	snap := buildSnapshot(t, cliqueapsp.AlgExact, cliqueapsp.RandomGraph(12, 9, 1), 1)
	raw := encodeToBytes(t, snap)
	// Deep in the distance rows: only the checksum can catch it.
	for _, pos := range []int{len(raw) - 12, len(raw) / 2, len(raw) - len(raw)/4} {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x40
		if _, err := store.Decode(bytes.NewReader(mut)); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("flip at %d/%d: err %v, want ErrCorrupt", pos, len(raw), err)
		}
	}
}

func TestDecodeFutureFormatVersion(t *testing.T) {
	snap := buildSnapshot(t, cliqueapsp.AlgExact, cliqueapsp.RandomGraph(12, 9, 1), 1)
	raw := encodeToBytes(t, snap)
	// Stamp a future format version and re-checksum so ONLY the version is
	// wrong: the codec must refuse on the version, not trip over the CRC.
	mut := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint16(mut[6:8], store.FormatVersion+1)
	sum := crc32.Checksum(mut[:len(mut)-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(mut[len(mut)-4:], sum)
	if _, err := store.Decode(bytes.NewReader(mut)); !errors.Is(err, store.ErrFormat) {
		t.Fatalf("future format decoded with err %v, want ErrFormat", err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, err := store.Decode(bytes.NewReader([]byte("not a snapshot at all"))); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("bad magic decoded with err %v, want ErrCorrupt", err)
	}
}

func TestEncodeRejectsMismatchedDimensions(t *testing.T) {
	g := cliqueapsp.RandomGraph(4, 5, 1)
	snap := buildSnapshot(t, cliqueapsp.AlgExact, cliqueapsp.RandomGraph(6, 5, 1), 1)
	snap.Graph = g // 4 nodes, 6×6 distances
	if err := store.Encode(&bytes.Buffer{}, snap); err == nil {
		t.Fatal("dimension mismatch encoded")
	}
}
