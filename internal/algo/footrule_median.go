package algo

import (
	"context"

	"rankagg/internal/core"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// FootruleMedian aggregates by sorting elements on their median position
// across the input rankings — the footrule-optimal heuristic of Dwork et
// al. [20] (when median positions are distinct, the result minimizes the
// total Spearman footrule, which is within a factor 2 of the Kendall-τ
// objective; see Section 2.1's "constant multiples" remark and
// Diaconis–Graham). Elements with equal medians are tied in the output,
// which extends the method naturally to rankings with ties.
type FootruleMedian struct{}

// Name implements core.Aggregator.
func (FootruleMedian) Name() string { return "FootruleMedian" }

// AggregateCtx implements core.Aggregator; the median pass does not poll
// the context.
func (FootruleMedian) AggregateCtx(_ context.Context, d *rankings.Dataset, _ core.RunOptions) (*core.RunResult, error) {
	med := kendall.MedianPositions(d)
	// Median doubled positions are half-integral ×2 = integral, so they map
	// losslessly onto the int64 scores rankByScore expects.
	scores := make([]int64, d.N)
	for e, v := range med {
		scores[e] = int64(v * 2)
	}
	return &core.RunResult{Consensus: rankByScore(scores, true, true)}, nil
}

func init() {
	core.Register("FootruleMedian", func() core.Aggregator { return FootruleMedian{} })
}
