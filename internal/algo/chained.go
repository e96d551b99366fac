package algo

import (
	"context"
	"fmt"

	"rankagg/internal/core"
	"rankagg/internal/rankings"
)

// Seedable is implemented by refinement algorithms that can start from a
// given solution (BioConsert's local search, Anneal): the second stage of
// a Chained aggregator.
type Seedable interface {
	core.Aggregator
	// Refine runs the search from seed instead of the algorithm's own
	// start, under AggregateCtx's contract (the caller is inside core.Run).
	// It ignores opts.WarmStart.
	Refine(ctx context.Context, d *rankings.Dataset, seed *rankings.Ranking, opts core.RunOptions) (*core.RunResult, error)
}

// Chained runs a fast first-stage algorithm and refines its output with a
// seedable second stage — the strategy Section 8 of the paper proposes
// ("chaining this kind of anytime approach to refine the solution produced
// by another (less time consuming) algorithm"). The default chain
// BordaCount→BioConsert gives near-BioConsert quality from a single
// positional pass plus one descent.
type Chained struct {
	// First produces the initial solution (default BordaCount).
	First core.Aggregator
	// Refiner improves it (default BioConsert's descent).
	Refiner Seedable
}

// Name implements core.Aggregator.
func (c *Chained) Name() string {
	first, refiner := c.stages()
	return fmt.Sprintf("%s+%s", first.Name(), refiner.Name())
}

func (c *Chained) stages() (core.Aggregator, Seedable) {
	first := c.First
	if first == nil {
		first = &Borda{}
	}
	refiner := c.Refiner
	if refiner == nil {
		refiner = &BioConsert{}
	}
	return first, refiner
}

// AggregateCtx implements core.Aggregator: both stages run inside this
// run's core.Run prologue, the pair matrix is built at most once for the
// whole chain, and it and the context reach both stages, so a cancel or
// deadline propagates into whichever stage is running.
func (c *Chained) AggregateCtx(ctx context.Context, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, error) {
	first, refiner := c.stages()
	opts.Pairs = pairsFor(d, opts)
	fres, err := first.AggregateCtx(ctx, d, opts)
	if err != nil {
		return nil, err
	}
	res, err := refiner.Refine(ctx, d, fres.Consensus, opts)
	if err != nil {
		return nil, err
	}
	res.DeadlineHit = res.DeadlineHit || fres.DeadlineHit
	res.Stats.Add(fres.Stats)
	return res, nil
}

func init() {
	core.Register("Borda+BioConsert", func() core.Aggregator { return &Chained{} })
	core.Register("Borda+Anneal", func() core.Aggregator {
		return &Chained{Refiner: &Anneal{}}
	})
}
