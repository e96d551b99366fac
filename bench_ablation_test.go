package rankagg

// Ablation benchmarks for the design choices called out in DESIGN.md: they
// quantify what each mechanism buys (or costs) on identical inputs.

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"rankagg/internal/algo"
	"rankagg/internal/core"
	"rankagg/internal/gen"
	"rankagg/internal/rankings"
)

// similarDataset mimics the regime where preprocessing shines: highly
// correlated rankings (few Markov steps) decompose into many unanimous
// groups.
func similarDataset(n, m, steps int, seed int64) *rankings.Dataset {
	rng := rand.New(rand.NewSource(seed))
	return gen.MarkovDataset(rng, gen.UniformRanking(rng, n), n, m, steps)
}

// BenchmarkAblationExactPreprocess compares the exact branch & bound with
// and without the unanimity decomposition on similar datasets (the paper
// reports the exact method 85% faster on similar data — the decomposition
// is our mechanism for that effect).
func BenchmarkAblationExactPreprocess(b *testing.B) {
	d := similarDataset(18, 7, 60, 42)
	for _, pre := range []struct {
		name string
		on   bool
	}{{"with-preprocess", true}, {"without-preprocess", false}} {
		b.Run(pre.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := &algo.ExactBnB{Preprocess: pre.on, TimeLimit: time.Minute}
				if _, err := core.Run(context.Background(), e, d, core.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationExactPairBound compares the exact search with and
// without the pairwise lower bound (pruning off = plain exhaustive DFS with
// incumbent cutoff only).
func BenchmarkAblationExactPairBound(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	d := gen.UniformDataset(rng, 5, 9)
	for _, v := range []struct {
		name    string
		disable bool
	}{{"with-bound", false}, {"without-bound", true}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := &algo.ExactBnB{DisablePairBound: v.disable, TimeLimit: time.Minute}
				if _, err := core.Run(context.Background(), e, d, core.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBioConsertSeeds compares BioConsert restarted from every
// input ranking ([12]'s protocol) with a single-seed run.
func BenchmarkAblationBioConsertSeeds(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	d := gen.UniformDataset(rng, 7, 40)
	b.Run("all-input-seeds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(context.Background(), &algo.BioConsert{}, d, core.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("single-seed", func(b *testing.B) {
		seed := d.Rankings[0]
		for i := 0; i < b.N; i++ {
			if _, err := (&algo.BioConsert{}).Refine(context.Background(), d, seed, core.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationKwikSortRuns measures the cost of the Min (best-of-16)
// protocol relative to a single randomized run.
func BenchmarkAblationKwikSortRuns(b *testing.B) {
	rng := rand.New(rand.NewSource(45))
	d := gen.UniformDataset(rng, 7, 60)
	for _, runs := range []struct {
		name string
		r    int
	}{{"runs-1", 1}, {"runs-16", 16}} {
		b.Run(runs.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(context.Background(), &algo.KwikSort{Runs: runs.r}, d, core.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLPBVsBnB compares the two exact methods on the same
// instances: the combinatorial search dominates the LPB model at every
// size, which is why the harness uses it as the reference.
func BenchmarkAblationLPBVsBnB(b *testing.B) {
	rng := rand.New(rand.NewSource(46))
	d := gen.UniformDataset(rng, 4, 7)
	b.Run("ExactBnB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(context.Background(), &algo.ExactBnB{}, d, core.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ExactLPB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(context.Background(), &algo.ExactLPB{}, d, core.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
