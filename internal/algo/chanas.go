package algo

import (
	"context"

	"rankagg/internal/core"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// Chanas implements the greedy local search of Chanas & Kobylański [11]
// for the linear ordering problem (Section 3.2): starting from each input
// ranking (ties broken arbitrarily — the method handles permutations only),
// adjacent elements are repeatedly transposed while that reduces the Kemeny
// score; when no adjacent swap improves, the permutation is reversed and
// re-optimized ("sort-and-reverse"), until a full cycle brings no
// improvement. The best result across the input seeds is returned.
//
// ChanasBoth [13, 31] additionally seeds the search with the reversals of
// the inputs.
type Chanas struct {
	// Both enables the ChanasBoth variant.
	Both bool
}

// Name implements core.Aggregator.
func (a *Chanas) Name() string {
	if a.Both {
		return "ChanasBoth"
	}
	return "Chanas"
}

// AggregateCtx implements core.Aggregator; the descents do not poll the
// context.
func (a *Chanas) AggregateCtx(_ context.Context, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, error) {
	p := pairsFor(d, opts)
	var seeds [][]int
	for _, r := range d.Rankings {
		seeds = append(seeds, r.Clone().Canonicalize().Elements())
	}
	if a.Both {
		for _, r := range d.Rankings {
			e := r.Clone().Canonicalize().Elements()
			reverse(e)
			seeds = append(seeds, e)
		}
	}
	var best []int
	var bestScore int64
	for _, seed := range seeds {
		perm := append([]int(nil), seed...)
		score := chanasOptimize(p, perm)
		if best == nil || score < bestScore {
			best, bestScore = perm, score
		}
	}
	return &core.RunResult{Consensus: rankings.FromPermutation(best)}, nil
}

// chanasOptimize runs the sort-and-reverse loop, leaving the best
// permutation found in perm and returning its score. perm is always left in
// an adjacent-swap local optimum consistent with the returned score.
func chanasOptimize(p *kendall.Pairs, perm []int) int64 {
	best := append([]int(nil), perm...)
	bestScore := adjacentSwapDescent(p, best, permScore(p, best))
	for {
		cand := append([]int(nil), best...)
		reverse(cand)
		candScore := adjacentSwapDescent(p, cand, permScore(p, cand))
		if candScore >= bestScore {
			break
		}
		best, bestScore = cand, candScore
	}
	copy(perm, best)
	return bestScore
}

// adjacentSwapDescent performs passes of improving adjacent transpositions
// until a fixpoint, returning the new score. Swapping neighbours a=perm[i],
// b=perm[i+1] changes the score by CostBefore(b,a) - CostBefore(a,b).
func adjacentSwapDescent(p *kendall.Pairs, perm []int, score int64) int64 {
	for improved := true; improved; {
		improved = false
		for i := 0; i+1 < len(perm); i++ {
			a, b := perm[i], perm[i+1]
			delta := p.CostBefore(b, a) - p.CostBefore(a, b)
			if delta < 0 {
				perm[i], perm[i+1] = b, a
				score += delta
				improved = true
			}
		}
	}
	return score
}

func permScore(p *kendall.Pairs, perm []int) int64 {
	var s int64
	for i, a := range perm {
		for _, b := range perm[i+1:] {
			s += p.CostBefore(a, b)
		}
	}
	return s
}

func reverse(v []int) {
	for i, j := 0, len(v)-1; i < j; i, j = i+1, j-1 {
		v[i], v[j] = v[j], v[i]
	}
}

func init() {
	core.Register("Chanas", func() core.Aggregator { return &Chanas{} })
	core.Register("ChanasBoth", func() core.Aggregator { return &Chanas{Both: true} })
}
