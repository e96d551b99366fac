package algo

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"rankagg/internal/core"
	"rankagg/internal/kendall"
	"rankagg/internal/lp"
	"rankagg/internal/rankings"
)

// Ailon implements Ailon's 3/2-approximation [1] (Section 3.2): the
// pairwise-ordering ILP is relaxed to a linear program over fractional
// variables u_{ab} = "a before b" ∈ [0,1] with triangle inequalities, and a
// consensus permutation is reconstructed by LP-guided pivoting (QuickSort
// where each element goes left of the pivot with probability u). Triangle
// inequalities are added lazily (row generation), mirroring how the paper's
// LPSolve-based implementation "does not scale" — our simplex hits the same
// qualitative wall (Section 7.1.1 reports no results for n > 45).
type Ailon struct {
	// Runs of randomized LP rounding; the best result is kept. A
	// derandomized threshold rounding is always evaluated too.
	// RunOptions.Restarts overrides it and RunOptions.Seed seeds it.
	Runs int
	// MaxElements caps instance size (0 = default 60).
	MaxElements int
	// MaxCutRounds caps lazy-constraint rounds (0 = default 60).
	MaxCutRounds int
}

// Name implements core.Aggregator.
func (a *Ailon) Name() string { return "Ailon3/2" }

func (a *Ailon) runs() int {
	if a.Runs <= 0 {
		return 8
	}
	return a.Runs
}

// TimeLimitError reports that an algorithm's budget expired before it could
// produce any solution at all, matching the paper's treatment ("after that
// limit, we considered that the algorithm was not able to provide a
// solution"). When a deadline expires with a partial solution in hand, the
// solution is returned with DeadlineHit set instead — TimeLimitError is the
// documented error path for the empty-handed case only.
type TimeLimitError struct {
	Algo    string
	Elapsed time.Duration
}

func (e *TimeLimitError) Error() string {
	return fmt.Sprintf("algo: %s gave up after %v", e.Algo, e.Elapsed)
}

// AggregateCtx implements core.Aggregator. The lazy-cut relaxation loop
// checks the context between cut rounds (each round is one simplex solve —
// the coarsest poll interval in the suite, documented here: a cancel during
// a round returns after that round's solve), and the rounding loop checks
// it before each randomized rounding. On a deadline the relaxation
// reached so far is rounded anyway — the derandomized rounding always, the
// randomized ones until the deadline — and returned with DeadlineHit,
// uniform with the exact methods' incumbent-on-deadline reporting;
// Stats.Restarts counts the randomized roundings completed. If the
// deadline fires before the first solve finishes, a TimeLimitError is
// returned (there is nothing to round yet).
func (a *Ailon) AggregateCtx(ctx context.Context, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, error) {
	maxN := a.MaxElements
	if maxN == 0 {
		maxN = 60
	}
	if d.N > maxN {
		return nil, &TooLargeError{N: d.N, Max: maxN}
	}
	p := pairsFor(d, opts)
	start := time.Now()
	u, err := a.solveRelaxation(ctx, p, d.N)
	if err != nil {
		return nil, err
	}
	deadlineHit, err := pollOutcome(ctx)
	if err != nil {
		return nil, err
	}
	if u == nil {
		// Deadline fired before any relaxation solve completed.
		return nil, &TimeLimitError{Algo: a.Name(), Elapsed: time.Since(start)}
	}
	rng := rand.New(rand.NewSource(opts.Seed + 0xa170))
	elems := make([]int, d.N)
	for i := range elems {
		elems[i] = i
	}
	var best *rankings.Ranking
	var bestScore int64
	consider := func(r *rankings.Ranking) {
		if s := p.Score(r); best == nil || s < bestScore {
			best, bestScore = r, s
		}
	}
	// Derandomized threshold rounding, then randomized pivot roundings.
	consider(roundDeterministic(u, d.N, elems))
	runs := a.runs()
	if opts.Restarts > 0 {
		runs = opts.Restarts
	}
	// One worker keeps the roundings on the single rng stream, in order;
	// the pool polls ctx before each one.
	completed := 0
	runAllCtx(ctx, runs, 1, func(_, _ int) {
		var out []int
		lpQuickSort(u, d.N, rng, append([]int(nil), elems...), &out)
		consider(rankings.FromPermutation(out))
		completed++
	})
	if deadlineHit, err = pollOutcome(ctx); err != nil {
		return nil, err
	}
	return &core.RunResult{
		Consensus:   best,
		DeadlineHit: deadlineHit,
		Stats:       core.SearchStats{Restarts: completed},
	}, nil
}

// pairIdx maps an unordered pair a < b to a dense index.
func pairIdx(n, a, b int) int { return a*(2*n-a-1)/2 + (b - a - 1) }

// uBefore reads the fractional probability that x precedes y.
func uBefore(u []float64, n, x, y int) float64 {
	if x < y {
		return u[pairIdx(n, x, y)]
	}
	return 1 - u[pairIdx(n, y, x)]
}

// solveRelaxation minimizes the pairwise objective over the triangle
// polytope with lazy cuts, returning the fractional u vector. The context
// is checked between cut rounds; when it fires the last completed
// relaxation is returned (nil if no solve completed at all).
func (a *Ailon) solveRelaxation(ctx context.Context, p *kendall.Pairs, n int) ([]float64, error) {
	nPairs := n * (n - 1) / 2
	obj := make([]float64, nPairs)
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			// cost = cb(x,y)·u + cb(y,x)·(1-u); constant dropped.
			obj[pairIdx(n, x, y)] = float64(p.CostBefore(x, y) - p.CostBefore(y, x))
		}
	}
	prob := lp.NewProblem(obj)
	for i := 0; i < nPairs; i++ {
		prob.Add(map[int]float64{i: 1}, lp.LE, 1)
	}
	maxRounds := a.MaxCutRounds
	if maxRounds == 0 {
		maxRounds = 60
	}
	var sol *lp.Solution
	for round := 0; round < maxRounds; round++ {
		if ctx.Err() != nil {
			break
		}
		next, err := lp.Solve(prob)
		if err != nil {
			return nil, err
		}
		if next.Status != lp.Optimal {
			return nil, fmt.Errorf("algo: Ailon relaxation %v", next.Status)
		}
		sol = next
		cuts := separateTriangles(sol.X, n, 500)
		if len(cuts) == 0 {
			break
		}
		prob.Cons = append(prob.Cons, cuts...)
	}
	if sol == nil {
		return nil, nil
	}
	return sol.X, nil
}

// separateTriangles returns up to limit violated triangle inequalities for
// the fractional point u.
func separateTriangles(u []float64, n, limit int) []lp.Constraint {
	type viol struct {
		c lp.Constraint
		v float64
	}
	var found []viol
	const tol = 1e-7
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			for z := y + 1; z < n; z++ {
				ab, bc, ac := pairIdx(n, x, y), pairIdx(n, y, z), pairIdx(n, x, z)
				// u_xy + u_yz - u_xz >= 0
				if s := u[ab] + u[bc] - u[ac]; s < -tol {
					found = append(found, viol{lp.Constraint{
						Coeffs: map[int]float64{ab: 1, bc: 1, ac: -1}, Rel: lp.GE, RHS: 0}, -s})
				}
				// u_xz - u_xy - u_yz >= -1
				if s := u[ac] - u[ab] - u[bc] + 1; s < -tol {
					found = append(found, viol{lp.Constraint{
						Coeffs: map[int]float64{ac: 1, ab: -1, bc: -1}, Rel: lp.GE, RHS: -1}, -s})
				}
			}
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].v > found[j].v })
	if len(found) > limit {
		found = found[:limit]
	}
	out := make([]lp.Constraint, len(found))
	for i, f := range found {
		out[i] = f.c
	}
	return out
}

// roundDeterministic orders elements by their fractional "wins"
// Σ_y u(x before y), a threshold-style derandomization.
func roundDeterministic(u []float64, n int, elems []int) *rankings.Ranking {
	wins := make([]float64, n)
	for _, x := range elems {
		for _, y := range elems {
			if x != y {
				wins[x] += uBefore(u, n, x, y)
			}
		}
	}
	order := append([]int(nil), elems...)
	sort.Slice(order, func(i, j int) bool {
		if wins[order[i]] != wins[order[j]] {
			return wins[order[i]] > wins[order[j]]
		}
		return order[i] < order[j]
	})
	return rankings.FromPermutation(order)
}

// lpQuickSort recursively pivots, sending e left of the pivot with
// probability u(e before pivot) — Ailon's LP-guided QuickSort rounding.
func lpQuickSort(u []float64, n int, rng *rand.Rand, elems []int, out *[]int) {
	if len(elems) == 0 {
		return
	}
	if len(elems) == 1 {
		*out = append(*out, elems[0])
		return
	}
	pivot := elems[rng.Intn(len(elems))]
	var left, right []int
	for _, e := range elems {
		if e == pivot {
			continue
		}
		if rng.Float64() < uBefore(u, n, e, pivot) {
			left = append(left, e)
		} else {
			right = append(right, e)
		}
	}
	lpQuickSort(u, n, rng, left, out)
	*out = append(*out, pivot)
	lpQuickSort(u, n, rng, right, out)
}

func init() {
	core.Register("Ailon3/2", func() core.Aggregator { return &Ailon{} })
}
