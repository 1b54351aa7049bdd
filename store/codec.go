package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	cliqueapsp "github.com/congestedclique/cliqueapsp"
	"github.com/congestedclique/cliqueapsp/internal/minplus"
)

// FormatVersion is the codec's current on-disk format. Decode accepts
// exactly the formats it knows how to parse and rejects newer ones with
// ErrFormat, so a rolled-back binary never misreads a newer fleet's files.
//
// Format 2 added the incremental-repair provenance (base version + delta
// count) after the flags word; format-1 files decode with both zero.
const FormatVersion uint16 = 2

// formatV1 is the pre-repair-provenance layout, still accepted on decode.
const formatV1 uint16 = 1

// MaxNodes bounds the graph size the codec accepts in either direction: a
// decoded header is untrusted input, and n drives an n² allocation, so a
// flipped byte must not be able to request hundreds of gigabytes.
const MaxNodes = 1 << 15

// magic identifies a snapshot file; it precedes the format version so even
// a pre-format-aware reader fails cleanly on foreign files.
var magic = [6]byte{'C', 'C', 'S', 'N', 'A', 'P'}

// maxNameLen bounds the algorithm / engine provenance strings.
const maxNameLen = 1024

// flagSeedPinned marks a snapshot whose seed was pinned by the tenant's
// configuration rather than derived per run by the engine.
const flagSeedPinned uint32 = 1 << 0

// castagnoli is the CRC-32C table shared by both codec directions.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// The layout (all integers little-endian):
//
//	magic [6]byte | format uint16
//	version uint64 | seed uint64 | factorBound float64 | eps float64
//	flags uint32 (bit 0: seed pinned)
//	baseVersion uint64 | deltaCount uint32   (format ≥ 2 only)
//	len uint16 + algorithm | len uint16 + engine
//	n uint32 | m uint32
//	m × edge (u uint32, v uint32, w uint64)
//	n × row (n × int64)
//	crc32c uint32 over every preceding byte
//
// The distance block streams row by row on both sides: Encode reads rows
// straight out of the zero-copy DistanceMatrix view, Decode fills the
// matrix storage in place via cliqueapsp.DistancesFromRows, and the only
// transient buffer either direction holds is one row of 8n bytes (Decode
// buffers the rest of a stream that cannot tell its length).

// Encode writes s to w in the current format, checksummed. It streams the
// distance matrix one row at a time and never buffers more than one row.
func Encode(w io.Writer, s *Snapshot) error {
	if s == nil || s.Graph == nil || s.Distances == nil {
		return fmt.Errorf("store: nil snapshot, graph or distances")
	}
	n := s.Graph.N()
	if n > MaxNodes {
		return fmt.Errorf("store: graph of %d nodes exceeds the codec bound of %d", n, MaxNodes)
	}
	if s.Distances.N() != n {
		return fmt.Errorf("store: %d×%d distances for %d nodes", s.Distances.N(), s.Distances.N(), n)
	}
	if len(s.Algorithm) > maxNameLen || len(s.Engine) > maxNameLen {
		return fmt.Errorf("store: provenance string over %d bytes", maxNameLen)
	}
	if s.DeltaCount < 0 || int64(s.DeltaCount) > math.MaxUint32 {
		return fmt.Errorf("store: delta count %d outside [0,2³²)", s.DeltaCount)
	}

	h := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(h, w), 1<<16)
	enc := &encoder{w: bw}

	enc.bytes(magic[:])
	enc.u16(FormatVersion)
	enc.u64(s.Version)
	enc.u64(uint64(s.Seed))
	enc.f64(s.FactorBound)
	enc.f64(s.Eps)
	var flags uint32
	if s.SeedPinned {
		flags |= flagSeedPinned
	}
	enc.u32(flags)
	enc.u64(s.BaseVersion)
	enc.u32(uint32(s.DeltaCount))
	enc.str(s.Algorithm)
	enc.str(s.Engine)

	edges := s.Graph.Edges()
	enc.u32(uint32(n))
	enc.u32(uint32(len(edges)))
	for _, e := range edges {
		enc.u32(uint32(e.U))
		enc.u32(uint32(e.V))
		enc.u64(uint64(e.W))
	}

	buf := make([]byte, 0, minplus.RowByteLen(n))
	for u := 0; u < n; u++ {
		enc.bytes(minplus.AppendRowBytes(buf[:0], s.Distances.Row(u)))
	}
	if enc.err != nil {
		return enc.err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// The trailer checksums everything before it, so it bypasses the
	// hashing writer and lands on w directly.
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], h.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// Decode reads one snapshot from r, verifying structure and checksum. A
// truncated stream, a flipped byte, an impossible header, or bytes past the
// checksum trailer fail with ErrCorrupt; a newer format version fails with
// ErrFormat. The header must agree with the stream's length before Decode
// allocates what the header sizes, so a short stream claiming a large n
// fails without that allocation. The length is taken from r when r can tell
// it (a file, a bytes or strings reader); any other stream is read to its
// end first, at most as far as the header promises, so memory grows with
// the bytes that arrive. Decoding then allocates the distance matrix once
// and fills it row by row.
func Decode(r io.Reader) (*Snapshot, error) {
	size, sized, err := streamLen(r)
	if err != nil {
		return nil, fmt.Errorf("store: restoring the stream position: %w", err)
	}
	h := crc32.New(castagnoli)
	br := bufio.NewReaderSize(r, 1<<16)
	dec := &decoder{r: io.TeeReader(br, h)}

	s, n, m, format, err := decodeHeader(dec)
	if err != nil {
		return nil, err
	}
	ix := indexFor(s, n, m, format)
	if !sized {
		rest, err := io.ReadAll(io.LimitReader(br, ix.Size-ix.EdgesOffset()+1))
		if err != nil {
			return nil, corrupt("reading past the header: %v", err)
		}
		br = bufio.NewReader(bytes.NewReader(rest))
		dec.r = io.TeeReader(br, h)
		size = ix.EdgesOffset() + int64(len(rest))
	}
	if size != ix.Size {
		return nil, corrupt("stream is %d bytes, header implies %d", size, ix.Size)
	}
	s.Graph = cliqueapsp.NewGraph(n)
	if err := decodeEdges(dec, s.Graph, m); err != nil {
		return nil, err
	}

	buf := make([]byte, minplus.RowByteLen(n))
	dist, err := cliqueapsp.DistancesFromRows(n, func(u int, dst []int64) error {
		if _, err := io.ReadFull(dec.r, buf); err != nil {
			return corrupt("reading row %d: %v", u, err)
		}
		return minplus.DecodeRowBytes(dst, buf)
	})
	if err != nil {
		return nil, err
	}
	s.Distances = dist

	// The stored trailer is read past the hashing tee: it must match the
	// checksum of everything decoded above.
	want := h.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, corrupt("reading checksum: %v", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return nil, corrupt("checksum mismatch: file %08x, computed %08x", got, want)
	}
	return s, nil
}

// streamLen reports how many bytes r holds from its current position, when
// r can tell without reading them: a reader with Len, or a seekable one
// such as a file, which is left where it was. sized is false for any other
// stream, and for a file that cannot seek, such as a pipe.
func streamLen(r io.Reader) (size int64, sized bool, err error) {
	switch s := r.(type) {
	case interface{ Len() int }:
		return int64(s.Len()), true, nil
	case io.Seeker:
		cur, err := s.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false, nil
		}
		end, err := s.Seek(0, io.SeekEnd)
		if err != nil {
			return 0, false, nil
		}
		if _, err := s.Seek(cur, io.SeekStart); err != nil {
			return 0, false, err
		}
		return end - cur, true, nil
	}
	return 0, false, nil
}

// decodeHeader reads the fixed snapshot prefix — magic, format, provenance,
// and the n/m counts — validating each field as untrusted input. It is
// shared by Decode and by DecodeLayout, which needs the format back to
// compute the row offsets; neither the graph nor the distances are
// allocated here.
func decodeHeader(dec *decoder) (*Snapshot, int, int, uint16, error) {
	var m6 [6]byte
	dec.bytes(m6[:])
	if dec.err != nil {
		return nil, 0, 0, 0, corrupt("reading magic: %v", dec.err)
	}
	if m6 != magic {
		return nil, 0, 0, 0, corrupt("bad magic %q", m6[:])
	}
	format := dec.u16()
	if dec.err != nil {
		return nil, 0, 0, 0, corrupt("reading format: %v", dec.err)
	}
	if format != formatV1 && format != FormatVersion {
		return nil, 0, 0, 0, fmt.Errorf("%w: version %d (this build reads %d..%d)", ErrFormat, format, formatV1, FormatVersion)
	}

	s := &Snapshot{}
	s.Version = dec.u64()
	s.Seed = int64(dec.u64())
	s.FactorBound = dec.f64()
	s.Eps = dec.f64()
	flags := dec.u32()
	s.SeedPinned = flags&flagSeedPinned != 0
	if format >= 2 {
		s.BaseVersion = dec.u64()
		s.DeltaCount = int(dec.u32())
	}
	s.Algorithm = dec.str()
	s.Engine = dec.str()
	n := int(dec.u32())
	m := int(dec.u32())
	if dec.err != nil {
		return nil, 0, 0, 0, corrupt("reading header: %v", dec.err)
	}
	if n < 1 || n > MaxNodes {
		return nil, 0, 0, 0, corrupt("node count %d outside [1,%d]", n, MaxNodes)
	}
	if m < 0 || m > n*n {
		return nil, 0, 0, 0, corrupt("edge count %d impossible for n=%d", m, n)
	}
	return s, n, m, format, nil
}

// decodeEdges streams the m-edge block into g.
func decodeEdges(dec *decoder, g *cliqueapsp.Graph, m int) error {
	for i := 0; i < m; i++ {
		u := int(dec.u32())
		v := int(dec.u32())
		w := int64(dec.u64())
		if dec.err != nil {
			return corrupt("reading edge %d: %v", i, dec.err)
		}
		if err := g.AddEdge(u, v, w); err != nil {
			return corrupt("edge %d: %v", i, err)
		}
	}
	return nil
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// encoder writes fixed-layout fields with a sticky error.
type encoder struct {
	w   io.Writer
	err error
	b   [8]byte
}

func (e *encoder) bytes(p []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(p)
	}
}

func (e *encoder) u16(v uint16) {
	binary.LittleEndian.PutUint16(e.b[:2], v)
	e.bytes(e.b[:2])
}

func (e *encoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.b[:4], v)
	e.bytes(e.b[:4])
}

func (e *encoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.b[:8], v)
	e.bytes(e.b[:8])
}

func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) str(s string) {
	e.u16(uint16(len(s)))
	e.bytes([]byte(s))
}

// decoder reads fixed-layout fields with a sticky error.
type decoder struct {
	r   io.Reader
	err error
	b   [8]byte
}

func (d *decoder) bytes(p []byte) {
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, p)
	}
}

func (d *decoder) u16() uint16 {
	d.bytes(d.b[:2])
	return binary.LittleEndian.Uint16(d.b[:2])
}

func (d *decoder) u32() uint32 {
	d.bytes(d.b[:4])
	return binary.LittleEndian.Uint32(d.b[:4])
}

func (d *decoder) u64() uint64 {
	d.bytes(d.b[:8])
	return binary.LittleEndian.Uint64(d.b[:8])
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) str() string {
	l := int(d.u16())
	if d.err != nil {
		return ""
	}
	if l > maxNameLen {
		d.err = fmt.Errorf("string of %d bytes over the %d cap", l, maxNameLen)
		return ""
	}
	p := make([]byte, l)
	d.bytes(p)
	return string(p)
}
