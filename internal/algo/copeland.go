package algo

import (
	"context"

	"rankagg/internal/core"
	"rankagg/internal/rankings"
)

// Copeland implements CopelandMethod [Copeland 1951] as described in the
// paper (Section 3.3): the score of an element is the sum, over the input
// rankings, of the number of elements placed strictly after it. Elements
// are ranked by descending score. On permutations this coincides with
// BordaCount's ordering; with ties the two differ because tied elements
// count in neither "before" nor "after".
type Copeland struct {
	// TieEqualScores keeps equal-score elements tied in the output.
	TieEqualScores bool
}

// Name implements core.Aggregator.
func (c *Copeland) Name() string { return "CopelandMethod" }

// AggregateCtx implements core.Aggregator; the single O(m·n) pass does
// not poll the context.
func (c *Copeland) AggregateCtx(_ context.Context, d *rankings.Dataset, _ core.RunOptions) (*core.RunResult, error) {
	scores := make([]int64, d.N)
	for _, r := range d.Rankings {
		after := r.Len()
		for _, bucket := range r.Buckets {
			after -= len(bucket)
			for _, e := range bucket {
				scores[e] += int64(after)
			}
		}
	}
	return &core.RunResult{Consensus: rankByScore(scores, false, c.TieEqualScores)}, nil
}

func init() {
	core.Register("CopelandMethod", func() core.Aggregator { return &Copeland{} })
	core.Register("CopelandMethodTies", func() core.Aggregator { return &Copeland{TieEqualScores: true} })
}
