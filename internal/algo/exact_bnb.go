package algo

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rankagg/internal/core"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// ExactBnB is a ties-aware exact branch & bound: the combinatorial
// counterpart of the paper's LPB formulation (Section 4.2) and of the
// branch & bound of Ali & Meilă [3], extended with the third branching
// choice ties require (Section 4.1.1: "the presence of ties brings a third
// choice: putting them in the same bucket").
//
// Elements are inserted one at a time (in Borda order, which tightens early
// bounds): each new element may join any existing bucket or open a new
// bucket at any boundary, so every bucket order over the prefix is
// enumerated exactly once. A node is pruned when
//
//	cost(placed pairs) + Σ_{pairs not both placed} min-pair-cost ≥ incumbent.
//
// The incumbent is primed with BioConsert's solution, so the search only
// has to prove optimality or improve on it. With Preprocess enabled the
// instance is first split by the unanimity decomposition (the data
// reduction idea of [5, 6]).
type ExactBnB struct {
	// TimeLimit is the default limit, applied when the run sets none: the
	// search then stops and returns the incumbent (reported as non-exact).
	// Zero means no limit — exponential worst case.
	TimeLimit time.Duration
	// MaxElements refuses instances larger than this (0 = no cap). The
	// paper computes optima "for moderately large datasets only".
	MaxElements int
	// Preprocess enables the unanimity decomposition.
	Preprocess bool
	// DisablePairBound turns off the pairwise lower bound (ablation only).
	DisablePairBound bool
}

// Name implements core.Aggregator.
func (a *ExactBnB) Name() string { return "ExactAlgorithm" }

// Exact implements core.ExactAggregator.
func (a *ExactBnB) Exact() {}

// AggregateCtx implements core.Aggregator: the ties-aware DFS (and the
// BioConsert descent priming each group's incumbent) polls the context at a
// bounded interval, so cancellation and deadlines propagate mid-descent.
// On deadline expiry the incumbent of every group is kept (DeadlineHit,
// Proved=false); a cancelled context returns the error instead.
func (a *ExactBnB) AggregateCtx(ctx context.Context, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, error) {
	if a.MaxElements > 0 && d.N > a.MaxElements {
		return nil, &TooLargeError{N: d.N, Max: a.MaxElements}
	}
	p := pairsFor(d, opts)
	ctx, cancel := defaultLimit(ctx, opts, a.TimeLimit)
	defer cancel()
	elems := make([]int, d.N)
	for i := range elems {
		elems[i] = i
	}
	groups := [][]int{elems}
	if a.Preprocess {
		groups = UnanimityDecomposition(p, elems)
	}
	// One poll serves the whole run: once it trips, the remaining groups
	// return their incumbents immediately and the result is non-exact.
	poll := newSearchPoll(ctx)
	primes, restarts := primeGroups(ctx, d, p, groups, opts.WorkerBudget())
	out := &rankings.Ranking{}
	exact := true
	var nodes int64
	for gi, g := range groups {
		br, ok, n := a.solveGroup(g, p, &primes[gi], poll)
		exact = exact && ok
		nodes += n
		if poll.Err() == context.Canceled {
			return nil, poll.Err()
		}
		out.Buckets = append(out.Buckets, br.Buckets...)
	}
	deadlineHit, err := poll.outcome()
	if err != nil {
		return nil, err
	}
	return &core.RunResult{
		Consensus:   out,
		Proved:      exact && !deadlineHit,
		DeadlineHit: deadlineHit,
		Stats:       core.SearchStats{Nodes: nodes, Restarts: restarts},
	}, nil
}

// groupPrime is everything solveGroup needs besides the DFS itself: the
// Borda insertion order, the BioConsert-primed incumbent with its score,
// and the pairwise lower-bound prefix sums. primeGroups computes all of it
// for every unanimity group up front on one shared worker pool, so sibling
// groups' incumbent descents (the expensive part: one placement-scan
// descent per input-ranking restriction) and their O(g²) LowerBound prefix
// sums run in parallel instead of sequentially group after group.
type groupPrime struct {
	order     []int
	incumbent *rankings.Ranking
	upper     int64
	minRest   []int64
}

// primeGroups runs every group's priming work on one bounded pool and
// reduces deterministically: per group the first strict-minimum descent in
// input-ranking order wins, exactly what the historical sequential loop
// kept, so the primed incumbents (and the DFS they seed) are identical for
// any worker count. Singleton groups need no priming. The second return
// value is the total number of incumbent descents run.
func primeGroups(ctx context.Context, d *rankings.Dataset, p *kendall.Pairs, groups [][]int, workers int) ([]groupPrime, int) {
	primes := make([]groupPrime, len(groups))
	type descent struct {
		gi   int
		seed *rankings.Ranking
	}
	var descents []descent
	var boundGIs []int // groups whose minRest is a pool task
	for gi, g := range groups {
		if len(g) == 1 {
			continue
		}
		primes[gi].order = bordaOrder(d, g)
		boundGIs = append(boundGIs, gi)
		in := make(map[int]bool, len(g))
		for _, e := range g {
			in[e] = true
		}
		for _, r := range d.Rankings {
			seed := restrictRanking(r, in)
			if seed.Len() != len(g) {
				continue
			}
			descents = append(descents, descent{gi, seed})
		}
	}
	type primeResult struct {
		cand  *rankings.Ranking
		score int64
	}
	results := make([]primeResult, len(descents))
	run := func(t int) {
		if t < len(descents) {
			de := descents[t]
			cand, _, _ := localSearchCtx(ctx, p, de.seed)
			results[t] = primeResult{cand, scoreWithin(p, cand, groups[de.gi])}
			return
		}
		gi := boundGIs[t-len(descents)]
		primes[gi].minRest = minRestOf(p, primes[gi].order)
	}
	nTasks := len(descents) + len(boundGIs)
	if workers > nTasks {
		workers = nTasks
	}
	if workers <= 1 {
		for t := 0; t < nTasks; t++ {
			run(t)
		}
	} else {
		var next int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					t := int(atomic.AddInt64(&next, 1)) - 1
					if t >= nTasks {
						return
					}
					run(t)
				}
			}()
		}
		wg.Wait()
	}
	for t, de := range descents {
		pr := &primes[de.gi]
		if r := results[t]; r.cand != nil && (pr.incumbent == nil || r.score < pr.upper) {
			pr.incumbent, pr.upper = r.cand, r.score
		}
	}
	for gi, g := range groups {
		pr := &primes[gi]
		if len(g) > 1 && pr.incumbent == nil {
			// No input ranking restricts to the full group (unreachable on the
			// complete datasets CheckInput admits, defensive all the same).
			pr.incumbent = rankings.New(append([]int(nil), g...))
			pr.upper = scoreWithin(p, pr.incumbent, g)
		}
	}
	return primes, len(descents)
}

// restrictRanking projects r onto the elements of in, dropping emptied
// buckets.
func restrictRanking(r *rankings.Ranking, in map[int]bool) *rankings.Ranking {
	seed := &rankings.Ranking{}
	for _, b := range r.Buckets {
		var nb []int
		for _, e := range b {
			if in[e] {
				nb = append(nb, e)
			}
		}
		if len(nb) > 0 {
			seed.Buckets = append(seed.Buckets, nb)
		}
	}
	return seed
}

// minRestOf computes minRest[j] = Σ min-pair-cost over pairs with at least
// one endpoint in order[j:] (a pair (order[i], order[j']) with i < j' is
// charged to its deeper endpoint j'); bound(node at depth j) = placedCost
// + minRest[j].
func minRestOf(p *kendall.Pairs, order []int) []int64 {
	minRest := make([]int64, len(order)+1)
	for j := len(order) - 1; j >= 0; j-- {
		var lvl int64
		for i := 0; i < j; i++ {
			lvl += p.MinPairCost(order[i], order[j])
		}
		minRest[j] = minRest[j+1] + lvl
	}
	return minRest
}

// solveGroup runs the branch & bound restricted to the given elements,
// seeded with the group's primed ingredients.
func (a *ExactBnB) solveGroup(elems []int, p *kendall.Pairs, prime *groupPrime, poll *searchPoll) (*rankings.Ranking, bool, int64) {
	if len(elems) == 1 {
		return rankings.New([]int{elems[0]}), true, 0
	}
	s := &bnbSearch{
		p:       p,
		order:   prime.order,
		upper:   prime.upper,
		best:    prime.incumbent,
		poll:    poll,
		noBound: a.DisablePairBound,
		minRest: prime.minRest,
	}
	s.run()
	return s.best, !s.poll.stopped(), s.nodes
}

// bnbSearch holds the DFS state of one branch & bound run.
type bnbSearch struct {
	p       *kendall.Pairs
	order   []int
	upper   int64
	best    *rankings.Ranking
	poll    *searchPoll
	noBound bool
	minRest []int64

	buckets [][]int
	nodes   int64
}

func (s *bnbSearch) run() {
	s.buckets = s.buckets[:0]
	s.dfs(0, 0)
}

// dfs places order[depth] given the partial cost of placed pairs.
func (s *bnbSearch) dfs(depth int, placed int64) {
	s.nodes++
	if s.poll.stop() {
		return
	}
	if depth == len(s.order) {
		if placed < s.upper {
			s.upper = placed
			s.best = snapshot(s.buckets)
		}
		return
	}
	bound := placed
	if !s.noBound {
		// Pairs among unplaced elements plus pairs (placed, unplaced) are all
		// still free to take their cheapest relation.
		bound += s.minRest[depth]
	}
	if bound >= s.upper {
		return
	}
	x := s.order[depth]
	k := len(s.buckets)
	// Aggregate costs of x against each existing bucket.
	befX := make([]int64, k) // x strictly before bucket j
	aftX := make([]int64, k) // x strictly after bucket j
	tieX := make([]int64, k)
	for j, b := range s.buckets {
		for _, y := range b {
			befX[j] += s.p.CostBefore(x, y)
			aftX[j] += s.p.CostBefore(y, x)
			tieX[j] += s.p.CostTied(x, y)
		}
	}
	preB := make([]int64, k+1)
	for j := 0; j < k; j++ {
		preB[j+1] = preB[j] + aftX[j]
	}
	sufA := make([]int64, k+1)
	for j := k - 1; j >= 0; j-- {
		sufA[j] = sufA[j+1] + befX[j]
	}
	type choice struct {
		tie, newAt int
		added      int64
	}
	choices := make([]choice, 0, 2*k+1)
	for j := 0; j < k; j++ {
		choices = append(choices, choice{tie: j, newAt: -1, added: preB[j] + sufA[j+1] + tieX[j]})
	}
	for q := 0; q <= k; q++ {
		choices = append(choices, choice{tie: -1, newAt: q, added: preB[q] + sufA[q]})
	}
	sort.Slice(choices, func(i, j int) bool { return choices[i].added < choices[j].added })
	for _, c := range choices {
		if c.tie >= 0 {
			s.buckets[c.tie] = append(s.buckets[c.tie], x)
			s.dfs(depth+1, placed+c.added)
			s.buckets[c.tie] = s.buckets[c.tie][:len(s.buckets[c.tie])-1]
		} else {
			s.buckets = append(s.buckets, nil)
			copy(s.buckets[c.newAt+1:], s.buckets[c.newAt:])
			s.buckets[c.newAt] = []int{x}
			s.dfs(depth+1, placed+c.added)
			s.buckets = append(s.buckets[:c.newAt], s.buckets[c.newAt+1:]...)
		}
		if s.poll.stopped() {
			return
		}
	}
}

func snapshot(buckets [][]int) *rankings.Ranking {
	out := &rankings.Ranking{Buckets: make([][]int, len(buckets))}
	for i, b := range buckets {
		out.Buckets[i] = append([]int(nil), b...)
	}
	return out
}

// bordaOrder sorts the group's elements by tie-adapted Borda score.
func bordaOrder(d *rankings.Dataset, elems []int) []int {
	scores := make(map[int]int64, len(elems))
	in := make(map[int]bool, len(elems))
	for _, e := range elems {
		in[e] = true
	}
	for _, r := range d.Rankings {
		before := 0
		for _, bucket := range r.Buckets {
			for _, e := range bucket {
				if in[e] {
					scores[e] += int64(before + 1)
				}
			}
			before += len(bucket)
		}
	}
	order := append([]int(nil), elems...)
	sort.Slice(order, func(i, j int) bool {
		if scores[order[i]] != scores[order[j]] {
			return scores[order[i]] < scores[order[j]]
		}
		return order[i] < order[j]
	})
	return order
}

// scoreWithin computes the Kemeny contribution of pairs inside the group.
func scoreWithin(p *kendall.Pairs, r *rankings.Ranking, elems []int) int64 {
	pos := r.Positions(p.N)
	var k int64
	for i, x := range elems {
		for _, y := range elems[i+1:] {
			px, py := pos[x], pos[y]
			switch {
			case px == 0 || py == 0:
			case px < py:
				k += p.CostBefore(x, y)
			case px > py:
				k += p.CostBefore(y, x)
			default:
				k += p.CostTied(x, y)
			}
		}
	}
	return k
}

// TooLargeError reports an instance exceeding an exact solver's size cap.
type TooLargeError struct{ N, Max int }

func (e *TooLargeError) Error() string {
	return "algo: instance too large for exact solver"
}

func init() {
	core.Register("ExactAlgorithm", func() core.Aggregator {
		return &ExactBnB{Preprocess: true, TimeLimit: 5 * time.Minute}
	})
}
