package eval

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rankagg/internal/algo"
	"rankagg/internal/core"
	"rankagg/internal/rankings"
)

// Auto is an aggregator that measures the dataset's features and delegates
// to the algorithm the Section 7.4 guidance recommends. It is the
// "batteries included" entry point for users who do not want to study the
// paper's decision table themselves.
type Auto struct {
	// NeedOptimal requests a proved optimum when feasible (falls back to
	// BioConsert beyond exact reach or budget).
	NeedOptimal bool
	// TimeCritical prefers the fastest acceptable method.
	TimeCritical bool
	// ExactBudget bounds the exact solver when NeedOptimal (default 30s).
	ExactBudget time.Duration
}

// Name implements core.Aggregator.
func (a *Auto) Name() string { return "Auto" }

// AggregateCtx implements core.Aggregator: the recommended delegate runs
// through core.Run under the caller's ctx and opts, so a deadline, a
// cancel, the worker budget and a prebuilt pair matrix all reach it. Auto
// reports the delegate's consensus and deadline verdict; it never claims a
// proof, even when the delegate is exact.
func (a *Auto) AggregateCtx(ctx context.Context, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, error) {
	rr, _, err := a.run(ctx, d, opts)
	return rr, err
}

// AggregateExplained runs Auto on d and additionally returns the
// recommendation that was applied (algorithm plus rationale).
func (a *Auto) AggregateExplained(d *rankings.Dataset) (*rankings.Ranking, Recommendation, error) {
	if err := core.CheckInput(d); err != nil {
		return nil, Recommendation{}, err
	}
	rr, rec, err := a.run(context.Background(), d, core.RunOptions{})
	if err != nil {
		return nil, rec, err
	}
	return rr.Consensus, rec, nil
}

func (a *Auto) run(ctx context.Context, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, Recommendation, error) {
	var err error
	for _, rec := range Recommend(ExtractFeatures(d), a.NeedOptimal, a.TimeCritical) {
		var rr *core.RunResult
		if rr, err = a.delegate(ctx, rec.Algorithm, d, opts); err == nil {
			return &core.RunResult{Consensus: rr.Consensus, DeadlineHit: rr.DeadlineHit}, rec, nil
		}
		// A size cap triggered: fall through to the next suggestion.
		var tooLarge *algo.TooLargeError
		if !errors.As(err, &tooLarge) {
			return nil, rec, err
		}
	}
	return nil, Recommendation{}, err
}

// delegate runs the recommended algorithm; ExactAlgorithm gets ExactBudget
// as its default limit.
func (a *Auto) delegate(ctx context.Context, name string, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, error) {
	if name == "ExactAlgorithm" {
		budget := a.ExactBudget
		if budget == 0 {
			budget = 30 * time.Second
		}
		return core.Run(ctx, &algo.ExactBnB{Preprocess: true, TimeLimit: budget}, d, opts)
	}
	ag, err := core.New(name)
	if err != nil {
		return nil, fmt.Errorf("eval: guidance produced unknown algorithm %q: %w", name, err)
	}
	return core.Run(ctx, ag, d, opts)
}

func init() {
	core.Register("Auto", func() core.Aggregator { return &Auto{} })
}
