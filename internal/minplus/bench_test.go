package minplus

import (
	"math/rand"
	"sync"
	"testing"
)

func BenchmarkDenseMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(128, rng)
	c := randomDense(128, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Mul(c)
	}
}

func BenchmarkSparseMulFiltered(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := FilterDense(randomDense(256, rng), 16)
	c := FilterDense(randomDense(256, rng), 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulSparse(a, c)
	}
}

func BenchmarkPowerFixpoint(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := randomDense(96, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.PowerFixpoint(256)
	}
}

func BenchmarkFilterDense(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := randomDense(256, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FilterDense(a, 16)
	}
}

// kernel1024 holds the operands of the n=1024 kernel pair and their
// MulNaive product, built once per process: the reference product costs
// as much as a BenchmarkMulNaive1024 op.
var kernel1024 struct {
	once       sync.Once
	a, b, want *Dense
}

func kernelOperands1024() (a, b, want *Dense) {
	k := &kernel1024
	k.once.Do(func() {
		rng := rand.New(rand.NewSource(1))
		k.a, k.b = randomDense(1024, rng), randomDense(1024, rng)
		k.want = k.a.MulNaive(k.b)
	})
	return k.a, k.b, k.want
}

// BenchmarkMulNaive1024 and BenchmarkMulTo1024 are the kernel pair
// scripts/benchgate.sh checks: the tiled kernel on the full shared pool must
// stay at least 1.5× faster than the untiled single-thread reference, and
// within BENCHMARK.json's throughput bound of a base commit.
func BenchmarkMulNaive1024(b *testing.B) {
	x, y, _ := kernelOperands1024()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MulNaive(y)
	}
}

func BenchmarkMulTo1024(b *testing.B) {
	x, y, want := kernelOperands1024()
	dst := NewDense(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.MulTo(nil, dst, y); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	identicalEntries(b, want, dst)
}
