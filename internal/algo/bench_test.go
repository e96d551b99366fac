package algo

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rankagg/internal/core"
	"rankagg/internal/gen"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

func benchDataset(seed int64, m, n int) *rankings.Dataset {
	rng := rand.New(rand.NewSource(seed))
	return gen.UniformDataset(rng, m, n)
}

// BenchmarkBioConsertByN tracks the flagship heuristic's growth (the
// paper's §7.4 warns about its O(n²) memory/time at very large n), plus
// one cold solve at each of the served exact tier's two dataset shapes on
// a prebuilt matrix: n=200 with m=20 uniform bucket orders, and m=30
// Markov walks of 200 steps from one seed ranking. Workers 1 keeps the
// restart pool sequential, so ns/op and allocs/op count one solve's work.
func BenchmarkBioConsertByN(b *testing.B) {
	for _, n := range []int{25, 50, 100, 200} {
		d := benchDataset(1, 7, n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := aggregate(&BioConsert{}, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	rng := rand.New(rand.NewSource(9))
	shapes := []struct {
		name string
		d    *rankings.Dataset
	}{
		{"uniform_n200_m20", gen.UniformDataset(rng, 20, 200)},
		{"markov_n200_m30", gen.MarkovDataset(rng, gen.UniformRanking(rng, 200), 200, 30, 200)},
	}
	for _, s := range shapes {
		p := kendall.NewPairs(s.d)
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := aggregate(&BioConsert{}, s.d, core.RunOptions{Pairs: p, Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKwikSortByN tracks the large-n recommendation, plus
// KwikSortMin (16 runs, each scored) at the served exact tier's dataset
// shape: n=200, m=20 uniform bucket orders with ties.
func BenchmarkKwikSortByN(b *testing.B) {
	for _, n := range []int{50, 200, 1000} {
		d := benchDataset(2, 7, n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := aggregate(&KwikSort{}, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	d := benchDataset(8, 20, 200)
	p := kendall.NewPairs(d)
	b.Run("KwikSortMin_n200_m20", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := aggregate(&KwikSort{Runs: 16}, d, core.RunOptions{Pairs: p}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPositionalByN confirms the positional family's near-linear cost.
func BenchmarkPositionalByN(b *testing.B) {
	for _, n := range []int{100, 1000} {
		d := benchDataset(3, 7, n)
		for _, a := range []core.Aggregator{&Borda{}, &Copeland{}, &MEDRank{H: 0.5}} {
			b.Run(fmt.Sprintf("%s_n%d", a.Name(), n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := aggregate(a, d); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFaginDP measures the O(n²) bucketization DP.
func BenchmarkFaginDP(b *testing.B) {
	for _, n := range []int{100, 400} {
		d := benchDataset(4, 7, n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := aggregate(&FaginDyn{}, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactBnBByN shows the exponential wall of the exact search on
// uniform (hard) instances.
func BenchmarkExactBnBByN(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		d := benchDataset(5, 5, n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := &ExactBnB{TimeLimit: time.Minute}
				if _, _, err := aggregateExact(e, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAilonLP measures the LP-relaxation pipeline at sizes below its
// wall.
func BenchmarkAilonLP(b *testing.B) {
	for _, n := range []int{10, 20} {
		d := benchDataset(6, 5, n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := aggregate(&Ailon{}, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnneal measures the §8 anytime refiner.
func BenchmarkAnneal(b *testing.B) {
	d := benchDataset(7, 7, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aggregate(&Anneal{}, d); err != nil {
			b.Fatal(err)
		}
	}
}
