package algo

import (
	"context"

	"rankagg/internal/core"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// PickAPerm implements the de-randomized Pick-a-Perm of Ailon et al. [2] /
// Schalekamp & van Zuylen [31]: it returns the input ranking with minimal
// generalized Kemeny score. It is a 2-approximation and works unchanged
// with ties ("can produce ties: yes" in Table 1) since it simply returns
// one of the inputs.
type PickAPerm struct{}

// Name implements core.Aggregator.
func (PickAPerm) Name() string { return "Pick-a-Perm" }

// AggregateCtx implements core.Aggregator; m score evaluations need no
// context polling.
func (PickAPerm) AggregateCtx(_ context.Context, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, error) {
	return &core.RunResult{Consensus: pickAPerm(d, pairsFor(d, opts))}, nil
}

// pickAPerm returns a copy of the input ranking with the lowest score
// (the first one on a tie).
func pickAPerm(d *rankings.Dataset, p *kendall.Pairs) *rankings.Ranking {
	best := d.Rankings[0]
	bestScore := p.Score(best)
	for _, r := range d.Rankings[1:] {
		if s := p.Score(r); s < bestScore {
			best, bestScore = r, s
		}
	}
	return best.Clone()
}

func init() {
	core.Register("Pick-a-Perm", func() core.Aggregator { return PickAPerm{} })
}
