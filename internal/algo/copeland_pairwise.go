package algo

import (
	"context"

	"rankagg/internal/core"
	"rankagg/internal/rankings"
)

// CopelandPairwise is the classical Copeland rule [15] in its original
// pairwise-majority form: an element scores +2 for every opponent a strict
// majority of rankings ranks it above, +1 for every pairwise draw, and
// elements are ordered by descending score. The paper evaluates the
// positional reading of Copeland (see Copeland); this variant is provided
// as an extension because the two disagree exactly on majority cycles and
// tie-heavy data, which is useful when diagnosing positional-method
// failures on unified datasets.
type CopelandPairwise struct {
	// TieEqualScores keeps equal-score elements tied in the output.
	TieEqualScores bool
}

// Name implements core.Aggregator.
func (c *CopelandPairwise) Name() string { return "CopelandPairwise" }

// AggregateCtx implements core.Aggregator; the O(n²) pass over the pair
// matrix does not poll the context.
func (c *CopelandPairwise) AggregateCtx(_ context.Context, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, error) {
	p := pairsFor(d, opts)
	scores := make([]int64, d.N)
	for a := 0; a < d.N; a++ {
		for b := 0; b < d.N; b++ {
			if a == b {
				continue
			}
			wa, wb := p.Before(a, b), p.Before(b, a)
			switch {
			case wa > wb:
				scores[a] += 2
			case wa == wb:
				scores[a]++
			}
		}
	}
	return &core.RunResult{Consensus: rankByScore(scores, false, c.TieEqualScores)}, nil
}

func init() {
	core.Register("CopelandPairwise", func() core.Aggregator { return &CopelandPairwise{} })
}
