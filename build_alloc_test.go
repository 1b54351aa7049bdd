// The race detector's instrumentation allocates on its own and drops
// sync.Pool entries at random, so build memory is only pinned without it.

//go:build !race

package cliqueapsp

import (
	"context"
	"runtime"
	"testing"
)

// build runs one Theorem 1.1 build of g, as BenchmarkBuild512 does, and
// drops its result.
func build(t *testing.T, g *Graph) {
	t.Helper()
	if _, err := New().Run(context.Background(), g, WithAlgorithm(AlgConstant), WithSeed(1)); err != nil {
		t.Fatal(err)
	}
}

// Nothing a build allocates outlives it: one build at n=512 followed by one
// collection, as perfbench's heap probe forces, leaves the live heap within
// 1 MiB of where it started. Build scratch that a package-level cache keeps,
// or that a sync.Pool holds when the build ends, fails this: a pool's victim
// cache survives one collection. The warm-up build is small, so a cache
// kept from it is small too, and the two collections before the start empty
// any pool. Declared first, so that in a run of the whole package no build
// at n=512 precedes it.
func TestBuildLeavesNoLiveHeap(t *testing.T) {
	build(t, RandomGraph(64, 100, 1))
	g := RandomGraph(512, 100, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	build(t, g)
	runtime.GC()
	runtime.ReadMemStats(&after)
	const slack = 1 << 20
	if after.HeapAlloc > before.HeapAlloc+slack {
		t.Fatalf("live heap grew by %d bytes across one build, want at most %d", after.HeapAlloc-before.HeapAlloc, slack)
	}
}

// A build reuses one k-nearest workspace for all of its Lemma 5.1
// iterations instead of allocating their buffers per call: one build at
// n=512 allocates at most 24 MB. Allocation is counted from the TotalAlloc
// delta rather than testing.AllocsPerRun, whose linking moves the min-plus
// kernel's code alignment in this test binary.
func TestBuild512AllocatesAtMost24MB(t *testing.T) {
	g := RandomGraph(512, 100, 1)
	build(t, g) // warm-up: the shared pool and one-time package state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build(t, g)
	runtime.ReadMemStats(&after)
	const limit = 24e6
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("one build allocated %.1f MB, want at most %.1f MB", float64(got)/1e6, limit/1e6)
	}
}
