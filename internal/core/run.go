package core

import (
	"context"
	"runtime"
	"time"

	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// RunOptions carries the per-run parameters of a context-aware aggregation.
// It replaces the scattered per-struct TimeLimit/Workers/Seed fields that
// were unreachable through the registry: a caller configures one value and
// every algorithm picks the fields it understands.
type RunOptions struct {
	// Workers is the worker budget for internally parallel work (BioConsert
	// restarts, KwikSortMin/RepeatChoiceMin independent runs). <= 0 lets the
	// algorithm choose (typically runtime.NumCPU()).
	Workers int
	// Seed replaces an algorithm's randomness seed when SeedSet is true (a
	// plain zero value must not clobber a meaningful zero seed).
	Seed    int64
	SeedSet bool
	// Restarts overrides the number of independent randomized runs or
	// restarts, for the algorithms that have one (KwikSortMin,
	// RepeatChoiceMin, Ailon's roundings). 0 keeps the algorithm default.
	Restarts int
	// TimeLimit bounds the run; it is merged into the context as a deadline,
	// so ctx cancellation and TimeLimit share one code path. 0 means no
	// limit beyond the context's own deadline.
	TimeLimit time.Duration
	// Pairs is a prebuilt pair matrix of the dataset (nil: the algorithm
	// builds its own). The matrix is only read, never written.
	Pairs *kendall.Pairs
	// WarmStart, when non-nil, seeds the search from a previously computed
	// consensus instead of the algorithm's cold-start policy (BioConsert's
	// input-ranking restart pool, Anneal's best-input start). Algorithms
	// that consume it implement WarmStartable and report the use in
	// SearchStats.WarmStart; everything else ignores the field. A ranking
	// that is not IsFullRanking over the dataset's universe is ignored, and
	// the algorithm falls back to its cold-start policy.
	WarmStart *rankings.Ranking
}

// IsFullRanking reports whether r is a valid bucket order
// (rankings.Ranking.Validate) of exactly the elements 0..n-1, as a warm
// start or a persisted consensus over a universe of n elements must be.
// Anything else — nil, a missing or repeated element, an empty bucket, an
// element outside the universe — is not.
func IsFullRanking(r *rankings.Ranking, n int) bool {
	return r != nil && r.Len() == n && r.MaxElement() < n && r.Validate() == nil
}

// WorkerBudget resolves the effective worker count: the explicit budget, or
// every CPU when unset.
func (o RunOptions) WorkerBudget() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// SearchStats reports what a search did, for observability and tuning.
// Fields are zero when they do not apply to the algorithm.
type SearchStats struct {
	// Restarts counts completed independent restarts/runs (BioConsert seeds,
	// KwikSortMin runs).
	Restarts int `json:"restarts"`
	// Nodes counts branch & bound nodes explored (BnB, ExactAlgorithm,
	// ExactLPB's solver).
	Nodes int64 `json:"nodes"`
	// Iterations counts convergence-loop iterations (MC power iteration,
	// annealing sweeps).
	Iterations int `json:"iterations"`
	// Moves counts the local-search moves actually applied (BioConsert's
	// descents across all restarts, Anneal's polish). It is the
	// convergence-work measure warm starts shrink: a warm-started re-solve
	// reports far fewer moves than a cold restart pool.
	Moves int64 `json:"moves,omitempty"`
	// WarmStart reports that the search consumed RunOptions.WarmStart —
	// it started from the supplied prior consensus instead of cold.
	WarmStart bool `json:"warm_start,omitempty"`
}

// Add accumulates another stage's statistics (chained algorithms).
func (s *SearchStats) Add(o SearchStats) {
	s.Restarts += o.Restarts
	s.Nodes += o.Nodes
	s.Iterations += o.Iterations
	s.Moves += o.Moves
	s.WarmStart = s.WarmStart || o.WarmStart
}

// RunResult is the structured outcome of a context-aware aggregation.
type RunResult struct {
	// Consensus is the computed consensus ranking.
	Consensus *rankings.Ranking
	// Proved reports that the consensus was proved optimal (exact methods
	// that ran to completion; always false for heuristics).
	Proved bool
	// DeadlineHit reports that a deadline (ctx deadline or RunOptions
	// TimeLimit) stopped the search early and Consensus is the best
	// incumbent found, not a completed run. Explicit cancellation is NOT
	// reported here — a cancelled context surfaces as an error instead.
	DeadlineHit bool
	// Stats holds search statistics where the algorithm records them.
	Stats SearchStats
}

// CtxAggregator is implemented by algorithms whose search is plumbed for
// context cancellation: a cancelled or expired ctx stops the search
// mid-descent within a bounded polling interval. The contract:
//
//   - ctx cancelled (context.Canceled): return (nil, ctx.Err()) promptly.
//   - ctx deadline expired (or RunOptions.TimeLimit elapsed): return the
//     best incumbent with DeadlineHit = true and a nil error, matching the
//     paper's time-limit policy of keeping the best solution found.
type CtxAggregator interface {
	Aggregator
	AggregateCtx(ctx context.Context, d *rankings.Dataset, opts RunOptions) (*RunResult, error)
}

// WarmStartable marks an aggregator whose search consumes
// RunOptions.WarmStart (a prior consensus as the starting solution).
// Serving layers use it to decide whether spending a stored warm hint on a
// run can pay off.
type WarmStartable interface {
	AcceptsWarmStart()
}

// CanWarmStart reports whether a consumes RunOptions.WarmStart.
func CanWarmStart(a Aggregator) bool {
	_, ok := a.(WarmStartable)
	return ok
}

// Run executes an aggregation under a context. Algorithms implementing
// CtxAggregator get full mid-search cancellation; for the rest Run is an
// adapter honoring the context at call boundaries only (the run itself is
// fast for every registered non-ctx algorithm). Exact methods report Proved
// through the result; every algorithm keeps working through this single
// entry point.
func Run(ctx context.Context, a Aggregator, d *rankings.Dataset, opts RunOptions) (*RunResult, error) {
	// Only cancellation aborts at entry: a context whose deadline already
	// expired still flows into the algorithm, which returns its best
	// incumbent with DeadlineHit per the CtxAggregator contract.
	if err := ctx.Err(); err == context.Canceled {
		return nil, err
	}
	if err := checkPairs(opts.Pairs); err != nil {
		return nil, err
	}
	if ca, ok := a.(CtxAggregator); ok {
		return ca.AggregateCtx(ctx, d, opts)
	}
	if ea, ok := a.(ExactAggregator); ok {
		r, proved, err := AggregateExactWithPairs(ea, d, opts.Pairs)
		if err != nil {
			return nil, err
		}
		return &RunResult{Consensus: r, Proved: proved}, nil
	}
	r, err := AggregateWithPairs(a, d, opts.Pairs)
	if err != nil {
		return nil, err
	}
	return &RunResult{Consensus: r}, nil
}
