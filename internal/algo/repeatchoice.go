package algo

import (
	"context"
	"math/rand"
	"sort"

	"rankagg/internal/core"
	"rankagg/internal/rankings"
)

// RepeatChoice implements Ailon's 2-approximation [1] (called Ailon2 in
// [12]): starting from one input ranking, its buckets are refined by the
// order of the elements in the other input rankings, visited in random
// order, until all inputs have been used. The paper's permutation variant
// then breaks the remaining buckets arbitrarily; removing that last step
// yields the ties-preserving variant (Section 4.1.2).
type RepeatChoice struct {
	// Runs > 1 selects the best of several randomized runs; the paper's
	// "RepeatChoiceMin" uses many runs and keeps the best-scoring result.
	// RunOptions.Restarts overrides it.
	Runs int
	// KeepTies skips the final arbitrary tie-breaking, producing a ranking
	// with ties.
	KeepTies bool
}

// Name implements core.Aggregator.
func (a *RepeatChoice) Name() string {
	if a.runs() > 1 {
		return "RepeatChoiceMin"
	}
	return "RepeatChoice"
}

func (a *RepeatChoice) runs() int {
	if a.Runs <= 0 {
		return 1
	}
	return a.Runs
}

// AggregateCtx implements core.Aggregator with KwikSort.AggregateCtx's
// contract and pooling: each run's visit order is drawn from its own
// run-indexed source derived from opts.Seed (0 is a fixed default; the
// library never draws global randomness), one refinement pass per poll
// interval, a deadline keeps the best completed run, a cancel is an error.
func (a *RepeatChoice) AggregateCtx(ctx context.Context, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, error) {
	p := pairsFor(d, opts)
	runs := a.runs()
	if opts.Restarts > 0 {
		runs = opts.Restarts
	}
	best, completed := runBestCtx(ctx, p, runs, opts.Workers, func(run int) *rankings.Ranking {
		rng := rand.New(rand.NewSource(opts.Seed + 0x5eed + int64(run)*0x9e3779b9))
		return a.oneRun(d, rng)
	})
	deadlineHit, err := pollOutcome(ctx)
	if err != nil {
		return nil, err
	}
	return &core.RunResult{
		Consensus:   best,
		DeadlineHit: deadlineHit,
		Stats:       core.SearchStats{Restarts: completed},
	}, nil
}

func (a *RepeatChoice) oneRun(d *rankings.Dataset, rng *rand.Rand) *rankings.Ranking {
	order := rng.Perm(d.M())
	cur := d.Rankings[order[0]].Clone()
	for _, ri := range order[1:] {
		cur = refineBy(cur, d.Rankings[ri], d.N)
	}
	if !a.KeepTies {
		broken := &rankings.Ranking{}
		for _, b := range cur.Canonicalize().Buckets {
			for _, e := range b {
				broken.Buckets = append(broken.Buckets, []int{e})
			}
		}
		cur = broken
	}
	return cur
}

// refineBy splits every bucket of cur by the position of its elements in
// ranking s, keeping elements tied in s together and preserving s's order
// between the sub-buckets.
func refineBy(cur, s *rankings.Ranking, n int) *rankings.Ranking {
	pos := s.Positions(n)
	out := &rankings.Ranking{}
	for _, b := range cur.Buckets {
		if len(b) == 1 {
			out.Buckets = append(out.Buckets, b)
			continue
		}
		groups := map[int][]int{}
		var keys []int
		for _, e := range b {
			k := pos[e]
			if _, ok := groups[k]; !ok {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], e)
		}
		sort.Ints(keys)
		for _, k := range keys {
			out.Buckets = append(out.Buckets, groups[k])
		}
	}
	return out
}

func init() {
	core.Register("RepeatChoice", func() core.Aggregator { return &RepeatChoice{} })
	core.Register("RepeatChoiceMin", func() core.Aggregator { return &RepeatChoice{Runs: 16} })
}
