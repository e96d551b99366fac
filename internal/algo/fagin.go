package algo

import (
	"context"
	"sort"

	"rankagg/internal/core"
	"rankagg/internal/rankings"
)

// FaginDyn implements the dynamic programming algorithm of Fagin et al.
// [21] (Section 3.1), one of the two approaches designed natively for ties:
// elements are first ordered by a positional score, then the optimal
// partition of that order into buckets is computed by dynamic programming
// (O(n²) after the ordering). Following [12], two variants are evaluated:
// FaginLarge favours solutions with large buckets and FaginSmall with small
// buckets (the preference breaks cost ties in the DP).
type FaginDyn struct {
	// PreferLarge selects the FaginLarge variant; false is FaginSmall.
	PreferLarge bool
	// MedianKey orders elements by median position instead of the default
	// mean position.
	MedianKey bool
}

// Name implements core.Aggregator.
func (a *FaginDyn) Name() string {
	if a.PreferLarge {
		return "FaginLarge"
	}
	return "FaginSmall"
}

// AggregateCtx implements core.Aggregator; the O(n²) dynamic program
// does not poll the context.
func (a *FaginDyn) AggregateCtx(_ context.Context, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, error) {
	p := pairsFor(d, opts)
	order := a.sortedElements(d)
	n := len(order)

	// f[j] = minimal adjusted cost of bucketizing order[0:j]; w[i] (for the
	// current j) = Σ_{i≤a<b<j} (costTied - costBefore) over order[a],order[b]
	// — the cost delta of fusing order[i:j] into one bucket relative to
	// keeping it strictly ordered.
	f := make([]int64, n+1)
	split := make([]int, n+1) // split[j] = i: last bucket is order[i:j]
	w := make([]int64, n+1)
	diffs := make([]int64, n)
	const inf = int64(1) << 62
	for j := 1; j <= n; j++ {
		ej := order[j-1]
		// Update w for the bucket candidates ending at j: each start i gains
		// the (tie - order) costs of ej against order[i:j-1].
		for a := 0; a < j-1; a++ {
			ea := order[a]
			diffs[a] = p.CostTied(ea, ej) - p.CostBefore(ea, ej)
		}
		var suf int64
		for a := j - 2; a >= 0; a-- {
			suf += diffs[a]
			w[a] += suf
		}
		w[j-1] = 0
		f[j] = inf
		for i := 0; i < j; i++ {
			v := f[i] + w[i]
			better := v < f[j]
			if v == f[j] {
				// Tie: FaginLarge keeps the earlier split (bigger bucket),
				// FaginSmall the later one (smaller bucket).
				better = !a.PreferLarge
			}
			if better {
				f[j] = v
				split[j] = i
			}
		}
	}
	out := &rankings.Ranking{}
	var stack [][]int
	for j := n; j > 0; j = split[j] {
		i := split[j]
		stack = append(stack, append([]int(nil), order[i:j]...))
	}
	for i := len(stack) - 1; i >= 0; i-- {
		out.Buckets = append(out.Buckets, stack[i])
	}
	return &core.RunResult{Consensus: out}, nil
}

// sortedElements orders the universe by mean (default) or median position,
// breaking ties by element ID.
func (a *FaginDyn) sortedElements(d *rankings.Dataset) []int {
	n := d.N
	key := make([]float64, n)
	if a.MedianKey {
		positions := make([][]int, n)
		for _, r := range d.Rankings {
			before := 0
			// The positional value is the tie-adapted position (elements
			// strictly before, plus one), consistent with Borda.
			for _, bucket := range r.Buckets {
				for _, e := range bucket {
					positions[e] = append(positions[e], before+1)
				}
				before += len(bucket)
			}
		}
		for e := 0; e < n; e++ {
			v := positions[e]
			sort.Ints(v)
			if len(v) == 0 {
				key[e] = 0
			} else if len(v)%2 == 1 {
				key[e] = float64(v[len(v)/2])
			} else {
				key[e] = float64(v[len(v)/2-1]+v[len(v)/2]) / 2
			}
		}
	} else {
		for _, r := range d.Rankings {
			before := 0
			for _, bucket := range r.Buckets {
				for _, e := range bucket {
					key[e] += float64(before + 1)
				}
				before += len(bucket)
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if key[order[i]] != key[order[j]] {
			return key[order[i]] < key[order[j]]
		}
		return order[i] < order[j]
	})
	return order
}

func init() {
	core.Register("FaginSmall", func() core.Aggregator { return &FaginDyn{} })
	core.Register("FaginLarge", func() core.Aggregator { return &FaginDyn{PreferLarge: true} })
}
