package graph

import (
	"math/rand"
	"testing"
)

func benchGraph(b *testing.B, n int) *Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return RandomConnected(n, 6, WeightRange{Min: 1, Max: 100}, rng)
}

func BenchmarkDijkstra(b *testing.B) {
	g := benchGraph(b, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(i % g.N())
	}
}

func BenchmarkExactAPSP(b *testing.B) {
	g := benchGraph(b, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ExactAPSP()
	}
}

func BenchmarkHopLimited(b *testing.B) {
	g := benchGraph(b, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HopLimited(i%g.N(), 8)
	}
}

func BenchmarkLightestOut(b *testing.B) {
	g := benchGraph(b, 512).AsDirected()
	g.SetCap(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.LightestOut(i%g.N(), 22)
	}
}

func BenchmarkRandomConnected(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RandomConnected(256, 6, WeightRange{Min: 1, Max: 50}, rng)
	}
}
