package approx

import (
	"context"
	"sort"

	"rankagg/internal/core"
	"rankagg/internal/rankings"
)

func init() {
	core.Register("avgrank", func() core.Aggregator { return ScoreRank{} })
	core.Register("scores", func() core.Aggregator { return ScoreRank{Optimistic: true} })
}

// ScoreRank aggregates by summed rank position: every element accumulates
// its (doubled, to stay integral) rank across the rankings and the
// consensus orders elements by ascending sum, tying elements whose sums are
// exactly equal. On complete datasets this is average-rank aggregation —
// the footrule-flavored approximation of Mathieu/Mauras — and the two
// registered variants coincide; they differ only in the rank charged to an
// element ABSENT from a ranking of length L over a universe of n:
//
//   - "avgrank" (Optimistic=false) charges the midpoint of the unseen tail,
//     doubled rank n+L+1: exactly the unified model's virtual last bucket,
//     where every absent element is tied at the average of the remaining
//     positions.
//   - "scores" (Optimistic=true) charges position L+1 (doubled rank
//     2(L+1)): one past the end of the list, the optimistic "it just missed
//     the cutoff" score of top-k list aggregation — absent elements are not
//     pushed to the bottom of a huge universe by rankings that never
//     considered them.
//
// Inside one bucket of size c starting at 1-based position p the doubled
// rank is 2p+c−1 (twice the average of positions p..p+c−1), so ties are
// exact integer arithmetic with no float comparison anywhere.
type ScoreRank struct {
	// Optimistic selects the "scores" absent-element rule (see above).
	Optimistic bool
}

// Name implements core.Aggregator.
func (s ScoreRank) Name() string {
	if s.Optimistic {
		return "scores"
	}
	return "avgrank"
}

// MatrixFree marks the algorithm for the approximation tier
// (core.MatrixFreeAggregator): no pair matrix is ever built or read.
func (ScoreRank) MatrixFree() {}

// AggregateCtx implements core.Aggregator, with the same worker-sharding,
// worker-invariance, cancellation and deadline semantics as
// Lehmer.AggregateCtx. Per ranking the truncation-aware accumulation costs
// O(L), not O(n) — absent elements ride in the ScoreState base term — so a
// toplists dataset totals in O(Σ L_i + n log n).
func (s ScoreRank) AggregateCtx(ctx context.Context, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, error) {
	st, err := BuildScore(ctx, d, s.Optimistic, opts.WorkerBudget())
	if err != nil {
		return nil, err
	}
	return &core.RunResult{Consensus: st.Consensus()}, nil
}

// scoreBuckets orders elements by ascending total, tying exact equals.
// Element ID breaks ordering (not bucket) ties for determinism — equal
// sums still land in one shared bucket.
func scoreBuckets(total []int64) *rankings.Ranking {
	n := len(total)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if total[order[i]] != total[order[j]] {
			return total[order[i]] < total[order[j]]
		}
		return order[i] < order[j]
	})
	var out rankings.Ranking
	for i := 0; i < n; {
		j := i + 1
		for j < n && total[order[j]] == total[order[i]] {
			j++
		}
		out.Buckets = append(out.Buckets, append([]int(nil), order[i:j]...))
		i = j
	}
	return &out
}
