package algo

import (
	"context"
	"fmt"

	"rankagg/internal/core"
	"rankagg/internal/rankings"
)

// MEDRank implements the top-k aggregation strategy of Fagin et al. [24]
// adapted to ties (Section 4.1.3): the input rankings are read "in
// parallel", bucket by bucket; as soon as an element has been read in at
// least h·m rankings it is appended to the consensus. Elements crossing the
// threshold during the same round are appended together, forming a tie
// bucket. Runs in O(nm) and is the fastest quality option for datasets with
// large ties (Section 7.4).
type MEDRank struct {
	// H is the threshold in ]0,1[; the paper evaluates 0.5 (default,
	// recommended) and 0.7.
	H float64
}

// Name implements core.Aggregator.
func (a *MEDRank) Name() string { return fmt.Sprintf("MEDRank(%.1f)", a.threshold()) }

func (a *MEDRank) threshold() float64 {
	if a.H <= 0 || a.H >= 1 {
		return 0.5
	}
	return a.H
}

// AggregateCtx implements core.Aggregator; the O(n·m) rounds do not poll
// the context.
func (a *MEDRank) AggregateCtx(_ context.Context, d *rankings.Dataset, _ core.RunOptions) (*core.RunResult, error) {
	h := a.threshold()
	m := float64(d.M())
	need := h * m
	counts := make([]int, d.N)
	emitted := make([]bool, d.N)
	out := &rankings.Ranking{}
	remaining := d.N
	maxRounds := 0
	for _, r := range d.Rankings {
		if r.NumBuckets() > maxRounds {
			maxRounds = r.NumBuckets()
		}
	}
	for round := 0; round < maxRounds && remaining > 0; round++ {
		for _, r := range d.Rankings {
			if round < len(r.Buckets) {
				for _, e := range r.Buckets[round] {
					counts[e]++
				}
			}
		}
		var bucket []int
		for e := 0; e < d.N; e++ {
			if !emitted[e] && float64(counts[e]) >= need-1e-12 {
				emitted[e] = true
				bucket = append(bucket, e)
			}
		}
		if len(bucket) > 0 {
			out.Buckets = append(out.Buckets, bucket)
			remaining -= len(bucket)
		}
	}
	// With a complete dataset every element reaches count = m ≥ h·m by the
	// last round, so remaining is zero here; guard anyway for safety.
	if remaining > 0 {
		var bucket []int
		for e := 0; e < d.N; e++ {
			if !emitted[e] {
				bucket = append(bucket, e)
			}
		}
		out.Buckets = append(out.Buckets, bucket)
	}
	return &core.RunResult{Consensus: out}, nil
}

func init() {
	core.Register("MEDRank(0.5)", func() core.Aggregator { return &MEDRank{H: 0.5} })
	core.Register("MEDRank(0.7)", func() core.Aggregator { return &MEDRank{H: 0.7} })
}
