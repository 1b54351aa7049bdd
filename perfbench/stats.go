package main

import (
	"errors"
	"math"
	"sort"
	"time"
)

// timeline records the window's primary ops — when each started and how
// long it took — and ccserve's CPU clock, read between ops at most every
// cpuEvery, so the window can be cut into slices afterwards. Failed ops are
// not recorded.
type timeline struct {
	start []time.Time
	lat   []time.Duration
	marks []cpuMark
	last  time.Time
	err   error
}

type cpuMark struct {
	op    int // ops recorded before the reading
	ticks int64
}

const cpuEvery = 50 * time.Millisecond

// begin is called just before an op is sent; it returns the op's start.
func (t *timeline) begin(s *server) time.Time {
	now := time.Now()
	if len(t.marks) == 0 || now.Sub(t.last) >= cpuEvery {
		t.mark(s)
		t.last = now
		now = time.Now()
	}
	return now
}

func (t *timeline) mark(s *server) {
	ticks, err := s.cpuTicks()
	if err != nil && t.err == nil {
		t.err = err
	}
	t.marks = append(t.marks, cpuMark{op: len(t.lat), ticks: ticks})
}

func (t *timeline) add(start time.Time, d time.Duration) {
	t.start = append(t.start, start)
	t.lat = append(t.lat, d)
}

// finish takes the closing CPU reading.
func (t *timeline) finish(s *server) error {
	t.mark(s)
	if t.err != nil {
		return t.err
	}
	if len(t.lat) == 0 {
		return errNoOps
	}
	return nil
}

var errNoOps = errors.New("no primary op completed in the window")

func (t *timeline) span() time.Duration {
	n := len(t.lat)
	if n == 0 {
		return 0
	}
	return t.start[n-1].Add(t.lat[n-1]).Sub(t.start[0])
}

// sliced holds one figure per slice of the window.
type sliced struct {
	rate, p50, tail, cpu []float64
	tailPct              float64
	tailCount            int
}

const (
	// sliceOps is the slice length of a long window: at 1000 ops a slice's
	// tail is always its p99, whatever the run's throughput, so the tail
	// keeps one meaning from run to run.
	sliceOps    = 1000
	maxSlices   = 10 // slices of a window shorter than 10 × sliceOps
	minSliceOps = 6
	// minSliceTail is the smallest slice with a p90 of its own.
	minSliceTail = 10 * tailBeyond
)

// slices cuts the window into runs of consecutive ops — sliceOps each in a
// long window, else up to maxSlices — and measures each on its own:
// completed ops per second, p50, tail and ccserve CPU µs per op. Reporting
// the median over slices keeps a burst of interference from other tenants
// of the machine, which hits a few slices, out of the figures. A slice too
// small to have a tail of its own reports the whole window's tail.
func (t *timeline) slices() sliced {
	n := len(t.lat)
	k := n / sliceOps
	if k < maxSlices {
		k = n / minSliceOps
		if k > maxSlices {
			k = maxSlices
		}
	}
	if k < 1 {
		k = 1
	}
	var out sliced
	whole := summarize(t.lat)
	for c := 0; c < k; c++ {
		lo, hi := c*n/k, (c+1)*n/k
		span := t.start[hi-1].Add(t.lat[hi-1]).Sub(t.start[lo])
		out.rate = append(out.rate, float64(hi-lo)/span.Seconds())
		l := summarize(t.lat[lo:hi])
		out.p50 = append(out.p50, float64(l.p50))
		if hi-lo < minSliceTail {
			l = whole
		}
		out.tail = append(out.tail, float64(l.tail))
		out.tailPct, out.tailCount = l.tailPct, l.count
		out.cpu = append(out.cpu, t.cpuPerOp(lo, hi))
	}
	return out
}

// cpuPerOp is ccserve's CPU µs per op over the readings that enclose ops
// [lo, hi).
func (t *timeline) cpuPerOp(lo, hi int) float64 {
	a, b := t.marks[0], t.marks[len(t.marks)-1]
	for _, m := range t.marks {
		if m.op <= lo {
			a = m
		}
	}
	for i := len(t.marks) - 1; i >= 0; i-- {
		if t.marks[i].op >= hi {
			b = t.marks[i]
		}
	}
	if b.op == a.op {
		return 0
	}
	return float64(b.ticks-a.ticks) * 1e6 / clkTck / float64(b.op-a.op)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latency summarises a set of op durations the way the benchmark reports
// them: the median, and the tail — the highest percentile of the ladder
// p90, p99, p99.9, p99.99 that has at least ten samples beyond it (the
// median when none has) — with that percentile and the sample count.
type latency struct {
	p50, tail time.Duration
	tailPct   float64
	count     int
}

const tailBeyond = 10

var tailLadder = []float64{99.99, 99.9, 99, 90}

func summarize(ds []time.Duration) latency {
	if len(ds) == 0 {
		return latency{}
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	fs := make([]float64, n)
	for i, d := range s {
		fs[i] = float64(d)
	}
	l := latency{count: n, p50: time.Duration(median(fs))}
	l.tail, l.tailPct = l.p50, 50
	for _, p := range tailLadder {
		// The first rank at or above p; everything after it is beyond.
		i := int(math.Ceil(float64(n)*p/100)) - 1
		if n-1-i >= tailBeyond {
			l.tail, l.tailPct = s[i], p
			break
		}
	}
	return l
}

func durs(xs []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, d := range xs {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
