package kendall

import (
	"fmt"
	"math/rand"
	"testing"

	"rankagg/internal/rankings"
)

// benchRanking builds a deterministic random bucket order for sizing runs.
func benchRanking(seed int64, n int) *rankings.Ranking {
	rng := rand.New(rand.NewSource(seed))
	return randomRanking(rng, n)
}

// BenchmarkDistLogLinear tracks the §2.2 "log-linear time" claim across
// sizes.
func BenchmarkDistLogLinear(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		r, s := benchRanking(1, n), benchRanking(2, n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Dist(r, s, n)
			}
		})
	}
}

// BenchmarkDistNaive is the quadratic reference for comparison.
func BenchmarkDistNaive(b *testing.B) {
	for _, n := range []int{100, 1000} {
		r, s := benchRanking(1, n), benchRanking(2, n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DistNaive(r, s, n)
			}
		})
	}
}

// BenchmarkScore measures the Kemeny score of a full consensus over top-k
// lists, the approximation tier's scoring shape (n=5000, m=100, L=100):
// one O(n) positions pass per call, then O(L log L) per list. Its
// allocations per call do not grow with m.
func BenchmarkScore(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	const n, m, l = 5000, 100, 100
	rks := make([]*rankings.Ranking, m)
	for i := range rks {
		rks[i] = rankings.FromPermutation(rng.Perm(n)[:l])
	}
	d := rankings.NewDataset(n, rks...)
	cons := rankings.FromPermutation(rng.Perm(n))
	b.ReportAllocs()
	for b.Loop() {
		Score(cons, d)
	}
}

// BenchmarkNewPairs measures the O(m·n²) pair-matrix construction every
// pair-based algorithm amortizes.
func BenchmarkNewPairs(b *testing.B) {
	for _, n := range []int{50, 200} {
		rng := rand.New(rand.NewSource(3))
		rks := make([]*rankings.Ranking, 7)
		for i := range rks {
			rks[i] = randomRanking(rng, n)
		}
		d := rankings.NewDataset(n, rks...)
		b.Run(fmt.Sprintf("n%d_m7", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewPairs(d)
			}
		})
	}
}

// BenchmarkPairsScore measures the O(n²) m-independent scoring path.
func BenchmarkPairsScore(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	n := 200
	rks := make([]*rankings.Ranking, 7)
	for i := range rks {
		rks[i] = randomRanking(rng, n)
	}
	d := rankings.NewDataset(n, rks...)
	p := NewPairs(d)
	cand := randomRanking(rng, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Score(cand)
	}
}

// BenchmarkSimilarity measures s(R) (all-pairs τ, eq. 5).
func BenchmarkSimilarity(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	rks := make([]*rankings.Ranking, 7)
	for i := range rks {
		rks[i] = randomRanking(rng, 100)
	}
	d := rankings.NewDataset(100, rks...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Similarity(d)
	}
}

// BenchmarkFootrule measures the generalized footrule.
func BenchmarkFootrule(b *testing.B) {
	r, s := benchRanking(6, 1000), benchRanking(7, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Footrule(r, s, 1000)
	}
}
