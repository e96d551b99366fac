// Package algo implements every rank aggregation algorithm evaluated or
// reviewed by the paper (Table 1), adapted to rankings with ties following
// Section 4.1, plus the two exact methods of Section 4.2. See DESIGN.md for
// the inventory. All algorithms consume complete datasets (use package
// normalize first) and never mutate their input.
package algo

import (
	"context"
	"sort"

	"rankagg/internal/core"
	"rankagg/internal/rankings"
)

// Borda implements BordaCount [Borda 1781] adapted to ties (Section 4.1.3):
// the position of an element in a ranking is the number of elements placed
// strictly before it, plus one (so tied elements share a position), and the
// score of an element is the sum of its positions. Elements are ranked by
// ascending score. Borda cannot account for the cost of (un)tying elements;
// the paper shows this makes it collapse on unified dissimilar datasets.
type Borda struct {
	// TieEqualScores keeps elements with identical scores tied in the output
	// ("with slight modification" in Table 1). When false (the default,
	// matching the paper's evaluated variant) equal scores are broken by
	// element ID and the output is a permutation.
	TieEqualScores bool
}

// Name implements core.Aggregator.
func (b *Borda) Name() string { return "BordaCount" }

// AggregateCtx implements core.Aggregator; the single O(m·n) pass does
// not poll the context.
func (b *Borda) AggregateCtx(_ context.Context, d *rankings.Dataset, _ core.RunOptions) (*core.RunResult, error) {
	scores := make([]int64, d.N)
	for _, r := range d.Rankings {
		before := 0
		for _, bucket := range r.Buckets {
			for _, e := range bucket {
				scores[e] += int64(before + 1)
			}
			before += len(bucket)
		}
	}
	return &core.RunResult{Consensus: rankByScore(scores, true, b.TieEqualScores)}, nil
}

// rankByScore sorts elements 0..n-1 by score (ascending if asc) and builds a
// ranking, tying equal scores when tieEqual is set and otherwise breaking
// them by element ID.
func rankByScore(scores []int64, asc, tieEqual bool) *rankings.Ranking {
	n := len(scores)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		si, sj := scores[order[i]], scores[order[j]]
		if si != sj {
			if asc {
				return si < sj
			}
			return si > sj
		}
		return order[i] < order[j]
	})
	r := &rankings.Ranking{}
	for i := 0; i < n; {
		j := i
		for j < n && (tieEqual && scores[order[j]] == scores[order[i]] || j == i) {
			j++
		}
		r.Buckets = append(r.Buckets, append([]int(nil), order[i:j]...))
		i = j
	}
	return r
}

func init() {
	core.Register("BordaCount", func() core.Aggregator { return &Borda{} })
	core.Register("BordaCountTies", func() core.Aggregator { return &Borda{TieEqualScores: true} })
}
