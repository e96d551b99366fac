package algo

import (
	"context"
	"math"
	"math/rand"

	"rankagg/internal/core"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// Anneal is a simulated-annealing aggregator over rankings with ties — the
// anytime approach Section 8 of the paper singles out ("simulated annealing
// techniques are known to produce high-quality consensus, but are time
// consuming"). It explores the same neighbourhood as BioConsert (move an
// element into an existing bucket, or into a new bucket at any boundary)
// but accepts worsening moves with probability exp(−Δ/T) under a geometric
// cooling schedule, escaping the local optima a pure descent gets stuck in.
// The best state ever visited is returned.
type Anneal struct {
	// Sweeps is the number of temperature levels; each level attempts
	// MovesPerSweep random moves. Defaults: 60 sweeps, 8·n moves.
	Sweeps        int
	MovesPerSweep int
	// InitialTemp seeds the schedule; 0 derives it from the dataset (the
	// mean pair cost, so early acceptance is high).
	InitialTemp float64
	// Cooling is the per-sweep multiplier in (0,1); default 0.9.
	Cooling float64
}

// Name implements core.Aggregator.
func (a *Anneal) Name() string { return "Anneal" }

// AggregateCtx implements core.Aggregator: the random walk polls the
// context every pollEvery moves, so cancellation and deadlines propagate
// mid-anneal. On a deadline the best state ever visited is returned
// (DeadlineHit) — annealing is the paper's Section 8 anytime approach, and
// the deadline is simply where "anytime" stops. opts.Seed fixes the walk.
// The walk starts from the best input ranking, or from opts.WarmStart.
func (a *Anneal) AggregateCtx(ctx context.Context, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, error) {
	p := pairsFor(d, opts)
	if w := opts.WarmStart; core.IsFullRanking(w, d.N) {
		// Start the walk from the prior consensus: the anneal then
		// spends its sweeps exploring around a known-good optimum
		// instead of climbing out of an arbitrary input ranking.
		res, err := a.anneal(ctx, d, w, p, opts)
		if err == nil {
			res.Stats.WarmStart = true
		}
		return res, err
	}
	return a.anneal(ctx, d, pickAPerm(d, p), p, opts)
}

// AcceptsWarmStart implements core.WarmStartable: AggregateCtx starts the
// walk from RunOptions.WarmStart.
func (a *Anneal) AcceptsWarmStart() {}

// Refine implements Seedable: anneal starting from the given solution.
func (a *Anneal) Refine(ctx context.Context, d *rankings.Dataset, seed *rankings.Ranking, opts core.RunOptions) (*core.RunResult, error) {
	return a.anneal(ctx, d, seed, pairsFor(d, opts), opts)
}

// anneal is the annealing loop proper, from seed.
func (a *Anneal) anneal(ctx context.Context, d *rankings.Dataset, seed *rankings.Ranking, p *kendall.Pairs, opts core.RunOptions) (*core.RunResult, error) {
	rng := rand.New(rand.NewSource(opts.Seed + 0x5a))
	st := newSearchState(p, seed)

	sweeps := a.Sweeps
	if sweeps <= 0 {
		sweeps = 60
	}
	moves := a.MovesPerSweep
	if moves <= 0 {
		moves = 8 * d.N
	}
	cooling := a.Cooling
	if cooling <= 0 || cooling >= 1 {
		cooling = 0.9
	}
	temp := a.InitialTemp
	if temp <= 0 {
		temp = meanPairCost(p)
	}

	poll := newSearchPoll(ctx)
	score := p.Score(st.ranking())
	best := st.ranking()
	bestScore := score
	sweepsDone := 0
walk:
	for s := 0; s < sweeps; s++ {
		for mv := 0; mv < moves; mv++ {
			if poll.stop() {
				break walk
			}
			x := st.elems[rng.Intn(len(st.elems))]
			cur := st.curIndex(x)
			tie, newAt := st.randomMove(x, cur, rng)
			delta := st.moveDelta(x, cur, tie, newAt)
			if delta <= 0 || rng.Float64() < math.Exp(-float64(delta)/temp) {
				st.apply(x, cur, tie, newAt)
				score += delta
				if score < bestScore {
					bestScore = score
					best = st.ranking()
				}
			}
		}
		temp *= cooling
		sweepsDone++
	}
	deadlineHit, err := poll.outcome()
	if err != nil {
		return nil, err
	}
	out := best
	var polishMoves int64
	if !deadlineHit {
		// Final descent polishes the annealed state into a local optimum
		// (skipped under an expired deadline — the walk's best stands).
		polished, pscore, pmoves := localSearchCtx(ctx, p, best)
		polishMoves = pmoves
		if pscore <= bestScore {
			out = polished
		}
	}
	return &core.RunResult{
		Consensus:   out,
		DeadlineHit: deadlineHit,
		Stats:       core.SearchStats{Iterations: sweepsDone, Moves: polishMoves},
	}, nil
}

// meanPairCost estimates a temperature from the average disagreement mass
// per pair.
func meanPairCost(p *kendall.Pairs) float64 {
	n := p.N
	if n < 2 {
		return 1
	}
	var total int64
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			total += p.CostTied(a, b)
		}
	}
	mean := float64(total) / float64(n*(n-1)/2)
	if mean < 1 {
		return 1
	}
	return mean
}

// randomMove draws a uniformly random placement for x among existing
// buckets and new-bucket boundaries (excluding the identity placement).
// cur is the index of x's current bucket.
func (st *searchState) randomMove(x, cur int, rng *rand.Rand) (tie, newAt int) {
	k := len(st.order)
	for {
		c := rng.Intn(2*k + 1)
		if c < k {
			if c == cur {
				continue
			}
			return c, -1
		}
		q := c - k
		// Recreating a singleton at its own boundary is the identity.
		if len(st.store[st.order[cur]]) == 1 && (q == cur || q == cur+1) {
			continue
		}
		return -1, q
	}
}

// moveDelta computes the score change of placing x into existing bucket tie
// (or a new bucket at boundary newAt) without mutating the state. cur is the
// index of x's current bucket.
func (st *searchState) moveDelta(x, cur, tie, newAt int) int64 {
	st.scanPlacement(x)
	curCost := st.preB[cur] + st.sufA[cur+1] + st.tieCost[cur]
	if tie >= 0 {
		return st.preB[tie] + st.sufA[tie+1] + st.tieCost[tie] - curCost
	}
	return st.preB[newAt] + st.sufA[newAt] - curCost
}

func init() {
	core.Register("Anneal", func() core.Aggregator { return &Anneal{} })
}
