package store

import (
	"bufio"
	"fmt"
	"io"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
)

// RowIndex locates the fixed-width distance rows inside one snapshot file
// without decoding it. Rows are a dense block of n rows × 8n bytes starting
// at RowOffset, so row u lives at RowOffset + u×RowWidth: the index is pure
// arithmetic over the snapshot header, which DecodeLayout reads in one
// short streaming pass — a tiered reader opens a snapshot in O(1) without
// touching the edge or row blocks.
type RowIndex struct {
	// Provenance mirror of the snapshot header, so a cold reader answers
	// version and provenance questions without reading any row.
	Version     uint64
	Algorithm   string
	FactorBound float64
	Eps         float64
	Seed        int64
	SeedPinned  bool
	Engine      string
	N           int
	M           int

	// BaseVersion and DeltaCount mirror the snapshot's incremental-repair
	// provenance (0, 0 for from-scratch builds and format-1 files).
	BaseVersion uint64
	DeltaCount  int

	// Format is the snapshot file's codec format — the layout arithmetic
	// depends on it, because format 2 headers are 12 bytes longer.
	Format uint16

	// RowOffset is the byte offset of row 0 in the snapshot file, RowWidth
	// the byte length of each row (8n), and Size the total expected file
	// size including the 4-byte checksum trailer.
	RowOffset int64
	RowWidth  int64
	Size      int64
}

// EdgesOffset returns the byte offset of the snapshot's edge block — the
// 16·M bytes immediately preceding the rows — for readers that decode the
// graph lazily.
func (ix *RowIndex) EdgesOffset() int64 { return ix.RowOffset - 16*int64(ix.M) }

// IndexOf computes the row index of the file Encode would write for s.
func IndexOf(s *Snapshot) (*RowIndex, error) {
	if s == nil || s.Graph == nil {
		return nil, fmt.Errorf("store: nil snapshot or graph")
	}
	return indexFor(s, s.Graph.N(), s.Graph.NumEdges(), FormatVersion), nil
}

// indexFor builds the row index of a snapshot file in the given codec format
// carrying s's provenance over an n-node, m-edge graph. The layout mirrors
// Encode's byte layout exactly: 6 magic + 2 format + 8 version + 8 seed +
// 8 factor + 8 eps + 4 flags (+ 8 baseVersion + 4 deltaCount in format ≥ 2)
// + (2+len) per provenance string + 4 n + 4 m, then 16·m of edges, then the
// rows, then the 4-byte trailer.
func indexFor(s *Snapshot, n, m int, format uint16) *RowIndex {
	header := int64(56)
	if format >= 2 {
		header += 12
	}
	ix := &RowIndex{
		Version:     s.Version,
		Algorithm:   s.Algorithm,
		FactorBound: s.FactorBound,
		Eps:         s.Eps,
		Seed:        s.Seed,
		SeedPinned:  s.SeedPinned,
		Engine:      s.Engine,
		N:           n,
		M:           m,
		BaseVersion: s.BaseVersion,
		DeltaCount:  s.DeltaCount,
		Format:      format,
	}
	ix.RowOffset = header + int64(len(s.Algorithm)) + int64(len(s.Engine)) + 16*int64(m)
	ix.RowWidth = 8 * int64(n)
	ix.Size = ix.RowOffset + ix.RowWidth*int64(n) + 4
	return ix
}

// DecodeLayout reads a snapshot's row index by one streaming pass over its
// header (the fixed prefix plus provenance strings — no edge or row bytes
// are read). It is the only way a cold reader locates rows, so it validates
// the header exactly as Decode does: whatever Decode accepts, DecodeLayout
// accepts with the same provenance and Size equal to the file's length.
func DecodeLayout(r io.Reader) (*RowIndex, error) {
	dec := &decoder{r: bufio.NewReaderSize(r, 1<<12)}
	s, n, m, format, err := decodeHeader(dec)
	if err != nil {
		return nil, err
	}
	return indexFor(s, n, m, format), nil
}

// DecodeEdgeBlock decodes a snapshot's m-edge block from r — positioned at
// the block's first byte, i.e. RowIndex.EdgesOffset() into the file — into a
// fresh n-node graph. Tiered readers use it to materialize the graph lazily
// (Path queries need it; Dist and Batch never do) without decoding rows.
func DecodeEdgeBlock(r io.Reader, n, m int) (*cliqueapsp.Graph, error) {
	if n < 1 || n > MaxNodes {
		return nil, corrupt("node count %d outside [1,%d]", n, MaxNodes)
	}
	if m < 0 || m > n*n {
		return nil, corrupt("edge count %d impossible for n=%d", m, n)
	}
	dec := &decoder{r: bufio.NewReaderSize(r, 1<<16)}
	g := cliqueapsp.NewGraph(n)
	if err := decodeEdges(dec, g, m); err != nil {
		return nil, err
	}
	return g, nil
}
