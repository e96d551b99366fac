package rankagg

// One benchmark per table and figure of the paper's evaluation section.
// Each bench runs the corresponding experiment at a laptop-scale
// configuration (EXPERIMENTS.md maps these to the paper's full setup) and,
// under -v, logs the regenerated rows/series. cmd/experiments runs the same
// code with tunable scales.

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rankagg/internal/core"
	"rankagg/internal/eval"
	"rankagg/internal/gen"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// BenchmarkTable5UniformGap regenerates Table 5: average gap, %gap=0 and
// %first per algorithm on uniformly generated datasets with an exact
// reference.
func BenchmarkTable5UniformGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := eval.Table5(eval.Table5Config{Datasets: 12, MaxN: 12, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", eval.FormatTable5(cmp))
		}
	}
}

// BenchmarkTable4RealDatasets regenerates Table 4: gap/m-gap and rank per
// algorithm on the seven simulated real-world families.
func BenchmarkTable4RealDatasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.Table4(eval.Table4Config{PerFamily: 2, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.String())
		}
	}
}

// BenchmarkFig2TimeVsN regenerates Figure 2: per-algorithm computing time
// as n grows (m = 7).
func BenchmarkFig2TimeVsN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := eval.Fig2(eval.Fig2Config{
			Ns: []int{5, 10, 25, 50}, PerN: 1, Seed: 1,
			ExactTime: 2 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", eval.FormatTimeSeries(series))
		}
	}
}

// BenchmarkFig3Similarity regenerates Figure 3: the similarity distribution
// of every dataset group.
func BenchmarkFig3Similarity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := eval.Fig3(eval.Table4Config{PerFamily: 4, Seed: 1}, nil, 1)
		if i == 0 {
			b.Logf("\n%s", eval.FormatFig3(rows))
		}
	}
}

// BenchmarkFig4GapVsSteps regenerates Figure 4: gap per algorithm as the
// Markov-chain step count (dissimilarity) grows.
func BenchmarkFig4GapVsSteps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := eval.SweepConfig{Steps: []int{50, 1000, 25000}, N: 12, PerStep: 3, Seed: 1}
		series, sims, err := eval.GapSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", eval.FormatGapSeries(series, sims, cfg.Steps))
		}
	}
}

// BenchmarkFig5UnifiedGap regenerates Figure 5: gap per algorithm on
// unified top-k datasets as dissimilarity grows.
func BenchmarkFig5UnifiedGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := eval.SweepConfig{
			Steps: []int{1000, 25000, 500000}, N: 12, PerStep: 3, Seed: 1,
			Unified: true,
		}
		series, sims, err := eval.GapSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", eval.FormatGapSeries(series, sims, cfg.Steps))
		}
	}
}

// BenchmarkFig6TimeQuality regenerates Figure 6: the time-vs-gap scatter on
// uniform datasets (m = 7).
func BenchmarkFig6TimeQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := eval.Fig6(4, 12, 1, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", eval.FormatFig6(points))
		}
	}
}

// ---------------------------------------------------------------- micro

var benchDataset = struct {
	once sync.Once
	d    *rankings.Dataset
}{}

func sharedDataset() *rankings.Dataset {
	benchDataset.once.Do(func() {
		rng := rand.New(rand.NewSource(99))
		benchDataset.d = gen.UniformDataset(rng, 7, 50)
	})
	return benchDataset.d
}

// BenchmarkAlgorithm measures each aggregator on one shared uniform dataset
// (m = 7, n = 50), the mid-range regime of Figure 2.
func BenchmarkAlgorithm(b *testing.B) {
	for _, name := range []string{
		"BordaCount", "CopelandMethod", "MEDRank(0.5)", "Pick-a-Perm",
		"RepeatChoice", "RepeatChoiceMin", "KwikSort", "KwikSortMin",
		"FaginSmall", "FaginLarge", "BioConsert", "MC4", "Chanas",
		"ChanasBoth", "BnBBeam",
	} {
		a, err := NewAggregator(name)
		if err != nil {
			b.Fatal(err)
		}
		d := sharedDataset()
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(context.Background(), a, d, core.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistance compares the log-linear and naive generalized
// Kendall-τ implementations (the §2.2 "log-linear time" claim).
func BenchmarkDistance(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	r := gen.UniformRanking(rng, 1000)
	s := gen.UniformRanking(rng, 1000)
	b.Run("loglinear-n1000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kendall.Dist(r, s, 1000)
		}
	})
	b.Run("naive-n1000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kendall.DistNaive(r, s, 1000)
		}
	})
}

// BenchmarkUniformSampler measures the exact-uniform bucket-order sampler.
func BenchmarkUniformSampler(b *testing.B) {
	for _, n := range []int{35, 100, 500} {
		rng := rand.New(rand.NewSource(4))
		gen.Fubini(n) // warm the cache outside the timed loop
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gen.UniformRanking(rng, n)
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 35:
		return "n35"
	case 100:
		return "n100"
	default:
		return "n500"
	}
}
