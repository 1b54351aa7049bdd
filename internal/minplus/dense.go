package minplus

import (
	"fmt"
	"slices"

	"github.com/congestedclique/cliqueapsp/internal/sched"
)

// Dense is a dense n×n matrix over the tropical semiring, stored row-major.
// In the distributed algorithms a Dense value models per-node knowledge:
// row u is the vector of estimates known to node u.
type Dense struct {
	n int
	a []int64
}

// NewDense returns an n×n matrix with every entry Inf.
func NewDense(n int) *Dense {
	if n <= 0 {
		panic(fmt.Sprintf("minplus: invalid dimension %d", n))
	}
	d := &Dense{n: n, a: make([]int64, n*n)}
	for i := range d.a {
		d.a[i] = Inf
	}
	return d
}

// Identity returns the tropical identity matrix: zero diagonal, Inf elsewhere.
func Identity(n int) *Dense {
	d := NewDense(n)
	for i := 0; i < n; i++ {
		d.Set(i, i, 0)
	}
	return d
}

// FromRows builds a Dense from a square slice-of-slices. The input is copied.
func FromRows(rows [][]int64) *Dense {
	n := len(rows)
	d := NewDense(n)
	for i, r := range rows {
		if len(r) != n {
			panic(fmt.Sprintf("minplus: row %d has length %d, want %d", i, len(r), n))
		}
		copy(d.a[i*n:(i+1)*n], r)
	}
	return d
}

// N returns the matrix dimension.
func (d *Dense) N() int { return d.n }

// At returns the entry at row i, column j.
func (d *Dense) At(i, j int) int64 { return d.a[i*d.n+j] }

// Set stores v at row i, column j.
func (d *Dense) Set(i, j int, v int64) { d.a[i*d.n+j] = v }

// Row returns a view of row i. The caller must not modify it unless it owns
// the matrix.
func (d *Dense) Row(i int) []int64 { return d.a[i*d.n : (i+1)*d.n] }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	c := &Dense{n: d.n, a: make([]int64, len(d.a))}
	copy(c.a, d.a)
	return c
}

// SetDiagZero sets every diagonal entry to 0 (distance of a node to itself).
func (d *Dense) SetDiagZero() {
	for i := 0; i < d.n; i++ {
		d.Set(i, i, 0)
	}
}

// Symmetrize replaces each pair (i,j),(j,i) by their minimum. Distance
// estimates in undirected graphs are kept symmetric this way.
func (d *Dense) Symmetrize() {
	for i := 0; i < d.n; i++ {
		for j := i + 1; j < d.n; j++ {
			v := min64(d.At(i, j), d.At(j, i))
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
}

// Clamp replaces every entry strictly greater than cap by cap. It models the
// universal weight-cap edges of the weight-scaling construction (paper §8.1):
// if an edge of weight cap exists between every pair, every distance is at
// most cap.
func (d *Dense) Clamp(cap int64) {
	for i, v := range d.a {
		if v > cap {
			d.a[i] = cap
		}
	}
}

// MaxFinite returns the largest non-infinite entry, or 0 if all entries are
// infinite.
func (d *Dense) MaxFinite() int64 {
	var m int64
	for _, v := range d.a {
		if !IsInf(v) && v > m {
			m = v
		}
	}
	return m
}

// Equal reports whether the two matrices have identical dimensions and
// entries (with all infinite representations considered equal).
func (d *Dense) Equal(o *Dense) bool {
	if d.n != o.n {
		return false
	}
	for i, v := range d.a {
		w := o.a[i]
		if IsInf(v) && IsInf(w) {
			continue
		}
		if v != w {
			return false
		}
	}
	return true
}

// Scale multiplies every finite entry by f (f ≥ 1), saturating at Inf.
func (d *Dense) Scale(f int64) {
	for i, v := range d.a {
		if !IsInf(v) {
			p := v * f
			if p/f != v || p >= Inf {
				p = Inf
			}
			d.a[i] = p
		}
	}
}

// KSmallestInRow returns the k smallest entries of row i in (value, column)
// order. If the row has fewer than k finite entries, all finite entries are
// returned. The result is newly allocated.
//
// Selection runs over a bounded max-heap of size ≤ k, so the call makes a
// single allocation of min(k, n) entries and costs O(n log k) instead of
// sorting the whole row.
func (d *Dense) KSmallestInRow(i, k int) []Entry {
	row := d.Row(i)
	if k <= 0 {
		return nil
	}
	if k > len(row) {
		k = len(row)
	}
	// ents is a max-heap under Entry.Less: ents[0] is the worst of the k
	// best seen so far, replaced whenever a better candidate appears.
	ents := make([]Entry, 0, k)
	for j, v := range row {
		if IsInf(v) {
			continue
		}
		e := Entry{Col: j, W: v}
		if len(ents) < k {
			ents = append(ents, e)
			siftUp(ents, len(ents)-1)
		} else if e.Less(ents[0]) {
			ents[0] = e
			siftDown(ents, 0)
		}
	}
	// ents is a max-heap; in-place heapsort leaves it ascending without
	// sort.Slice's closure/interface allocations.
	for end := len(ents) - 1; end > 0; end-- {
		ents[0], ents[end] = ents[end], ents[0]
		siftDown(ents[:end], 0)
	}
	return ents
}

// SmallestK reorders ents in place so that its first min(k, len(ents))
// entries are the k smallest in (value, column) order, ascending, and
// returns that prefix. Columns must be distinct, which makes the order total
// and the result identical to sorting ents and truncating to k. Selection
// keeps a bounded max-heap in the prefix, so only the k survivors are
// sorted and nothing is allocated.
func SmallestK(ents []Entry, k int) []Entry {
	if k <= 0 {
		return ents[:0]
	}
	if k < len(ents) {
		heap := ents[:k]
		for i := range heap {
			siftUp(heap, i)
		}
		for _, e := range ents[k:] {
			if e.Less(heap[0]) {
				heap[0] = e
				siftDown(heap, 0)
			}
		}
		ents = heap
	}
	slices.SortFunc(ents, Entry.Compare)
	return ents
}

// siftUp restores the max-heap property (parents not Less than children)
// after appending ents[i].
func siftUp(ents []Entry, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !ents[p].Less(ents[i]) {
			return
		}
		ents[p], ents[i] = ents[i], ents[p]
		i = p
	}
}

// siftDown restores the max-heap property after replacing ents[i].
func siftDown(ents []Entry, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(ents) && ents[big].Less(ents[l]) {
			big = l
		}
		if r < len(ents) && ents[big].Less(ents[r]) {
			big = r
		}
		if big == i {
			return
		}
		ents[i], ents[big] = ents[big], ents[i]
		i = big
	}
}

// Tile geometry of the blocked kernel. The k×j tile of the right operand
// (64 × 512 int64s = 256 KiB) stays L2-resident while a panel of rows
// streams over it, and the destination row segment (4 KiB) stays in L1.
// mulRowChunk rows per work unit keeps the cancellation poll between tiles
// on a ~millisecond cadence at n=1024 without starving the cursor.
const (
	mulRowChunk = 16
	mulTileK    = 64
	mulTileJ    = 512
)

// MulTo computes the distance product dst = d ⋆ o over the tropical
// semiring, (d⋆o)[i,j] = min_k (d[i,k] + o[k,j]), into a caller-owned
// destination: the allocation-free core of Mul/Power/PowerFixpoint. dst
// must be n×n and distinct from both operands; its previous contents are
// discarded.
//
// The i/k/j loops are cache-blocked and row panels fan out across g (nil =
// the shared pool, uncancellable). Results are byte-identical to MulNaive.
// Cancellation is polled between tiles: on a dead context MulTo returns the
// context's error within milliseconds, leaving dst partially written.
func (d *Dense) MulTo(g *sched.Group, dst, o *Dense) error {
	if d.n != o.n {
		panic(fmt.Sprintf("minplus: dimension mismatch %d vs %d", d.n, o.n))
	}
	if dst.n != d.n {
		panic(fmt.Sprintf("minplus: destination dimension %d, want %d", dst.n, d.n))
	}
	if dst == d || dst == o {
		panic("minplus: MulTo destination aliases an operand")
	}
	if g == nil {
		g = sched.Background()
	}
	n := d.n
	return g.ForN(n, mulRowChunk, func(rlo, rhi int) {
		for i := rlo; i < rhi; i++ {
			oi := dst.Row(i)
			for j := range oi {
				oi[j] = Inf
			}
		}
		for kb := 0; kb < n; kb += mulTileK {
			if g.Err() != nil {
				return
			}
			kHi := kb + mulTileK
			if kHi > n {
				kHi = n
			}
			for jb := 0; jb < n; jb += mulTileJ {
				jHi := jb + mulTileJ
				if jHi > n {
					jHi = n
				}
				for i := rlo; i < rhi; i++ {
					di := d.Row(i)
					oi := dst.Row(i)[jb:jHi]
					for k := kb; k < kHi; k++ {
						dik := di[k]
						if IsInf(dik) {
							continue
						}
						ok := o.Row(k)[jb:jHi]
						for j, w := range ok {
							if s := dik + w; s < oi[j] {
								oi[j] = s
							}
						}
					}
				}
			}
		}
	})
}

// Mul returns the distance product d ⋆ o over the tropical semiring,
// computed by the tiled parallel kernel on the shared pool. Use MulTo with
// a sched.Group for cancellation and an explicit worker budget.
func (d *Dense) Mul(o *Dense) *Dense {
	out := NewDense(d.n)
	// The background group has no context to cancel, so the error is
	// structurally nil.
	_ = d.MulTo(nil, out, o)
	return out
}

// MulNaive is the retained reference kernel: the straightforward untiled,
// single-threaded triple loop the tiled kernel must match byte-for-byte.
// Property tests compare against it, and BenchmarkMulNaive1024 times it as
// the baseline of the ≥1.5× kernel speedup that scripts/benchgate.sh
// checks.
func (d *Dense) MulNaive(o *Dense) *Dense {
	if d.n != o.n {
		panic(fmt.Sprintf("minplus: dimension mismatch %d vs %d", d.n, o.n))
	}
	n := d.n
	out := NewDense(n)
	for i := 0; i < n; i++ {
		di := d.Row(i)
		oi := out.Row(i)
		for k := 0; k < n; k++ {
			dik := di[k]
			if IsInf(dik) {
				continue
			}
			ok := o.Row(k)
			for j := 0; j < n; j++ {
				if s := dik + ok[j]; s < oi[j] {
					oi[j] = s
				}
			}
		}
	}
	return out
}

// PowerFixpointCtx returns d^h (tropical) where h is the smallest power of
// two at which the matrix stops changing, capped at maxExp, along with the
// number of squarings performed. The diagonal is forced to zero first so
// that powers model h-hop distances. Squarings ping-pong between two
// buffers — the whole fixpoint allocates two n×n matrices total instead of
// one per squaring — and run tiled on g; a cancelled context aborts
// mid-product with the context's error.
func (d *Dense) PowerFixpointCtx(g *sched.Group, maxExp int) (*Dense, int, error) {
	cur := d.Clone()
	cur.SetDiagZero()
	squarings := 0
	var next *Dense
	for exp := 1; exp < maxExp; exp *= 2 {
		if next == nil {
			next = NewDense(d.n)
		}
		if err := cur.MulTo(g, next, cur); err != nil {
			return nil, squarings, err
		}
		squarings++
		if next.Equal(cur) {
			return next, squarings, nil
		}
		cur, next = next, cur
	}
	return cur, squarings, nil
}

// PowerFixpoint is PowerFixpointCtx on the shared pool without
// cancellation.
func (d *Dense) PowerFixpoint(maxExp int) (*Dense, int) {
	out, squarings, _ := d.PowerFixpointCtx(nil, maxExp)
	return out, squarings
}

// PowerCtx returns d^h over the tropical semiring via binary
// exponentiation, h ≥ 1. Like PowerFixpointCtx it rotates three buffers
// (result, base, spare) instead of allocating per product, runs tiled on g,
// and aborts mid-product when g's context dies.
func (d *Dense) PowerCtx(g *sched.Group, h int) (*Dense, error) {
	if h < 1 {
		panic(fmt.Sprintf("minplus: invalid exponent %d", h))
	}
	result := d.Clone()
	h--
	if h == 0 {
		return result, nil
	}
	base := d.Clone()
	spare := NewDense(d.n)
	// result, base and spare are always three distinct buffers: each
	// product writes into spare and swaps it with the operand it replaced.
	for h > 0 {
		if h&1 == 1 {
			if err := result.MulTo(g, spare, base); err != nil {
				return nil, err
			}
			result, spare = spare, result
		}
		h >>= 1
		if h > 0 {
			if err := base.MulTo(g, spare, base); err != nil {
				return nil, err
			}
			base, spare = spare, base
		}
	}
	return result, nil
}

// Power is PowerCtx on the shared pool without cancellation.
func (d *Dense) Power(h int) *Dense {
	out, _ := d.PowerCtx(nil, h)
	return out
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
