package algo

import (
	"context"
	"fmt"
	"time"

	"rankagg/internal/core"
	"rankagg/internal/ilp"
	"rankagg/internal/lp"
	"rankagg/internal/rankings"
)

// ExactLPB is the paper's Section 4.2 contribution: the first exact method
// for rank aggregation WITH ties, formulated as a linear pseudo-boolean
// (0-1) program and solved here with the pure-Go branch & bound of package
// ilp (standing in for CPLEX; see DESIGN.md).
//
// Variables, per unordered pair {a,b}: x_{a<b}, x_{b<a}, x_{a=b}.
// Objective: Σ w_{b≤a}·x_{a<b} + w_{a≤b}·x_{b<a} + (w_{a<b}+w_{a>b})·x_{a=b},
// the generalized Kendall-τ cost of each relation. Constraints:
//
//	(1) x_{a<b} + x_{b<a} + x_{a=b} = 1                      (eager)
//	(2) x_{a<c} − x_{a<b} − x_{b<c} ≥ −1                     (lazy)
//	(3) 2x_{a<b}+2x_{b<a}+2x_{b<c}+2x_{c<b}−x_{a<c}−x_{c<a} ≥ 0 (lazy)
//
// Lemma 1 of the paper proves assignments satisfying (1)–(3) are exactly
// the rankings with ties and the objective equals the generalized Kemeny
// score; TestExactLPBMatchesBruteForce re-verifies this empirically.
type ExactLPB struct {
	// MaxElements caps instance size (0 = default 12; the LPB model has
	// 3·C(n,2) binaries and the paper computes optima only for moderate n).
	MaxElements int
	// TimeLimit is the default limit on the branch & bound, applied when
	// the run sets none (0 = 5 minutes).
	TimeLimit time.Duration
}

// Name implements core.Aggregator.
func (a *ExactLPB) Name() string { return "ExactLPB" }

// Exact implements core.ExactAggregator.
func (a *ExactLPB) Exact() {}

// AggregateCtx implements core.Aggregator: the context is threaded into
// the pure-Go LPB branch & bound (checked once per node and per cut round)
// and into the BioConsert descent priming the incumbent. On a deadline the
// best incumbent — the solver's, or BioConsert's when the solver found none
// — is returned with DeadlineHit; a cancelled context returns the error.
func (a *ExactLPB) AggregateCtx(ctx context.Context, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, error) {
	maxN := a.MaxElements
	if maxN == 0 {
		maxN = 12
	}
	if d.N > maxN {
		return nil, &TooLargeError{N: d.N, Max: maxN}
	}
	n := d.N
	p := pairsFor(d, opts)
	limit := a.TimeLimit
	if limit == 0 {
		limit = 5 * time.Minute
	}
	ctx, cancel := defaultLimit(ctx, opts, limit)
	defer cancel()
	nPairs := n * (n - 1) / 2

	// Variable layout: pair {a<b} (IDs ascending) occupies indices
	// 3·pairIdx + {0: a<b, 1: b<a, 2: a=b}.
	varLT := func(a, b int) int { // x_{a<b} for any ordered (a,b)
		if a < b {
			return 3 * pairIdx(n, a, b)
		}
		return 3*pairIdx(n, b, a) + 1
	}
	varEQ := func(a, b int) int {
		if a > b {
			a, b = b, a
		}
		return 3*pairIdx(n, a, b) + 2
	}

	obj := make([]float64, 3*nPairs)
	prob := lp.NewProblem(obj)
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			obj[varLT(x, y)] = float64(p.CostBefore(x, y))
			obj[varLT(y, x)] = float64(p.CostBefore(y, x))
			obj[varEQ(x, y)] = float64(p.CostTied(x, y))
			prob.Add(map[int]float64{
				varLT(x, y): 1, varLT(y, x): 1, varEQ(x, y): 1,
			}, lp.EQ, 1) // constraint (1)
		}
	}

	separator := func(x []float64) []lp.Constraint {
		var cuts []lp.Constraint
		const tol = 1e-7
		const limit = 300
		for a := 0; a < n && len(cuts) < limit; a++ {
			for b := 0; b < n && len(cuts) < limit; b++ {
				if b == a {
					continue
				}
				for c := 0; c < n && len(cuts) < limit; c++ {
					if c == a || c == b {
						continue
					}
					// (2) transitivity.
					ac, ab, bc := varLT(a, c), varLT(a, b), varLT(b, c)
					if x[ac]-x[ab]-x[bc] < -1-tol {
						cuts = append(cuts, lp.Constraint{
							Coeffs: map[int]float64{ac: 1, ab: -1, bc: -1},
							Rel:    lp.GE, RHS: -1,
						})
					}
					// (3) tie transitivity (needed once per unordered (a,c)
					// with middle b; enumerating all ordered triples just
					// repeats valid cuts, which the violation check filters).
					ba, cb2, ca := varLT(b, a), varLT(c, b), varLT(c, a)
					lhs := 2*x[ab] + 2*x[ba] + 2*x[bc] + 2*x[cb2] - x[ac] - x[ca]
					if lhs < -tol {
						cuts = append(cuts, lp.Constraint{
							Coeffs: map[int]float64{ab: 2, ba: 2, bc: 2, cb2: 2, ac: -1, ca: -1},
							Rel:    lp.GE, RHS: 0,
						})
					}
				}
			}
		}
		return cuts
	}

	// Prime the incumbent with BioConsert (sharing the pair matrix and the
	// context: a cancel during priming propagates too).
	bioRes, err := (&BioConsert{}).AggregateCtx(ctx, d, core.RunOptions{Pairs: p, Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	bio := bioRes.Consensus
	initX := assignmentOf(bio, n, varLT, varEQ)
	initObj := float64(p.Score(bio))

	res, err := ilp.SolveBinary(prob, ilp.Options{
		InitialUpper: initObj + 1, // exclusive bound: allow matching optimum
		InitialX:     initX,
		Separator:    separator,
		IntegerCosts: true,
		Ctx:          ctx,
	})
	if err != nil {
		return nil, err
	}
	stats := core.SearchStats{Nodes: int64(res.Nodes)}
	// Classify from the solver's own verdict, not a fresh ctx sample: a
	// deadline that fires after the solve already proved optimality must
	// not demote a completed run.
	switch res.Status {
	case ilp.Optimal:
		r, err := rankingFromAssignment(res.X, n, varLT)
		if err != nil {
			return nil, err
		}
		return &core.RunResult{Consensus: r, Proved: true, Stats: stats}, nil
	case ilp.Feasible:
		// Budget stopped the search with an incumbent in hand.
		if _, err := pollOutcome(ctx); err != nil {
			return nil, err
		}
		r, err := rankingFromAssignment(res.X, n, varLT)
		if err != nil {
			return nil, err
		}
		return &core.RunResult{Consensus: r, DeadlineHit: true, Stats: stats}, nil
	case ilp.TimedOut:
		// Budget stopped the search before it improved on the primer.
		if _, err := pollOutcome(ctx); err != nil {
			return nil, err
		}
		return &core.RunResult{Consensus: bio, DeadlineHit: true, Stats: stats}, nil
	default:
		return nil, fmt.Errorf("algo: LPB solve failed: status %v", res.Status)
	}
}

// assignmentOf encodes a ranking as an LPB 0/1 vector.
func assignmentOf(r *rankings.Ranking, n int, varLT func(a, b int) int, varEQ func(a, b int) int) []float64 {
	pos := r.Positions(n)
	x := make([]float64, 3*n*(n-1)/2)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			switch {
			case pos[a] < pos[b]:
				x[varLT(a, b)] = 1
			case pos[a] > pos[b]:
				x[varLT(b, a)] = 1
			default:
				x[varEQ(a, b)] = 1
			}
		}
	}
	return x
}

// rankingFromAssignment rebuilds the bucket order: the position of an
// element is the number of elements strictly before it; constraints (1)–(3)
// guarantee tied elements share that count.
func rankingFromAssignment(x []float64, n int, varLT func(a, b int) int) (*rankings.Ranking, error) {
	pos := make([]int, n)
	for e := 0; e < n; e++ {
		before := 0
		for y := 0; y < n; y++ {
			if y != e && x[varLT(y, e)] > 0.5 {
				before++
			}
		}
		pos[e] = before + 1
	}
	r := rankings.FromPositions(pos)
	if r.Len() != n {
		return nil, fmt.Errorf("algo: LPB assignment does not encode a ranking")
	}
	return r, nil
}

func init() {
	core.Register("ExactLPB", func() core.Aggregator { return &ExactLPB{} })
}
