package algo

import (
	"context"
	"sort"
	"time"

	"rankagg/internal/core"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// BnB implements the permutation-only branch & bound of Ali & Meilă [3]
// (Section 3.2): a DFS over prefixes of the output permutation where a leaf
// at depth j fixes the first j elements, pruned with the pairwise lower
// bound min(cost(a<b), cost(b<a)) over undecided pairs. Output never
// contains ties (the paper notes handling ties "would require designing a
// fully new algorithm" — that new algorithm is ExactBnB), so a completed
// search proves optimality only when every input is a permutation: then,
// by the theorem of [9], some optimum is a permutation too.
type BnB struct {
	// TimeLimit is the default limit, applied when the run sets none: the
	// search then stops and returns the incumbent.
	TimeLimit time.Duration
}

// Name implements core.Aggregator.
func (a *BnB) Name() string { return "BnB" }

// Exact implements core.ExactAggregator.
func (a *BnB) Exact() {}

// AggregateCtx implements core.Aggregator: the DFS polls the context at a
// bounded node interval, so cancellation and deadlines propagate
// mid-descent. A deadline expiry returns the incumbent with DeadlineHit.
func (a *BnB) AggregateCtx(ctx context.Context, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, error) {
	p := pairsFor(d, opts)
	ctx, cancel := defaultLimit(ctx, opts, a.TimeLimit)
	defer cancel()
	order := bordaOrderAll(d)
	// Incumbent: Chanas-style descent from Borda order.
	inc := append([]int(nil), order...)
	upper := chanasOptimize(p, inc)

	// minRest[j]: Σ over pairs with deeper endpoint ≥ j of the cheaper
	// strict orientation.
	minRest := make([]int64, len(order)+1)
	for j := len(order) - 1; j >= 0; j-- {
		var lvl int64
		for i := 0; i < j; i++ {
			cb, ca := p.CostBefore(order[i], order[j]), p.CostBefore(order[j], order[i])
			if ca < cb {
				cb = ca
			}
			lvl += cb
		}
		minRest[j] = minRest[j+1] + lvl
	}
	s := &permSearch{p: p, order: order, upper: upper, best: inc, minRest: minRest, poll: newSearchPoll(ctx)}
	s.dfs(0, 0, nil)
	deadlineHit, err := s.poll.outcome()
	if err != nil {
		return nil, err
	}
	proved := !deadlineHit
	for _, r := range d.Rankings {
		proved = proved && r.IsPermutation()
	}
	return &core.RunResult{
		Consensus:   rankings.FromPermutation(s.best),
		Proved:      proved,
		DeadlineHit: deadlineHit,
		Stats:       core.SearchStats{Nodes: s.nodes},
	}, nil
}

// BnBBeam is the beam-search degradation of BnB that [3] recommends as a
// KwikSort/ChanasBoth trade-off: it keeps the Width most promising
// prefixes per depth. It is a heuristic and never proves optimality.
type BnBBeam struct {
	// Width is the number of prefixes kept per depth.
	Width int
}

// Name implements core.Aggregator.
func (a *BnBBeam) Name() string { return "BnBBeam" }

// AggregateCtx implements core.Aggregator: the beam checks the context
// once per depth; on a deadline the best prefix is completed in Borda
// order and returned with DeadlineHit.
func (a *BnBBeam) AggregateCtx(ctx context.Context, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, error) {
	poll := newSearchPoll(ctx)
	r := beamSearch(pairsFor(d, opts), bordaOrderAll(d), a.Width, poll)
	deadlineHit, err := poll.outcome()
	if err != nil {
		return nil, err
	}
	return &core.RunResult{Consensus: r, DeadlineHit: deadlineHit}, nil
}

type permSearch struct {
	p       *kendall.Pairs
	order   []int
	upper   int64
	best    []int
	minRest []int64
	poll    *searchPoll
	nodes   int64
}

// dfs inserts order[depth] at every position of the current prefix.
func (s *permSearch) dfs(depth int, placed int64, prefix []int) {
	s.nodes++
	if s.poll.stop() {
		return
	}
	if depth == len(s.order) {
		if placed < s.upper {
			s.upper = placed
			s.best = append([]int(nil), prefix...)
		}
		return
	}
	if placed+s.minRest[depth] >= s.upper {
		return
	}
	x := s.order[depth]
	// cost of inserting x at position q: Σ_{i<q} cost(prefix[i] before x) +
	// Σ_{i≥q} cost(x before prefix[i]); computed via prefix sums.
	k := len(prefix)
	pre := make([]int64, k+1)
	suf := make([]int64, k+1)
	for i := 0; i < k; i++ {
		pre[i+1] = pre[i] + s.p.CostBefore(prefix[i], x)
	}
	for i := k - 1; i >= 0; i-- {
		suf[i] = suf[i+1] + s.p.CostBefore(x, prefix[i])
	}
	type ins struct {
		q     int
		added int64
	}
	cands := make([]ins, 0, k+1)
	for q := 0; q <= k; q++ {
		cands = append(cands, ins{q, pre[q] + suf[q]})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].added < cands[j].added })
	buf := make([]int, k+1)
	for _, c := range cands {
		copy(buf, prefix[:c.q])
		buf[c.q] = x
		copy(buf[c.q+1:], prefix[c.q:])
		s.dfs(depth+1, placed+c.added, buf)
		if s.poll.stopped() {
			return
		}
	}
}

// beamSearch keeps the width best prefixes per depth, checking the context
// once per depth (each depth is O(width·k) insertion work). When the
// context fires mid-search the best current prefix is completed with the
// remaining elements in Borda order — still a full consensus, reported via
// the poll as deadline-cut or cancelled by the caller.
func beamSearch(p *kendall.Pairs, order []int, width int, poll *searchPoll) *rankings.Ranking {
	type state struct {
		perm []int
		cost int64
	}
	beam := []state{{perm: nil, cost: 0}}
	for depth, x := range order {
		if poll.stopNow() {
			return rankings.FromPermutation(append(append([]int(nil), beam[0].perm...), order[depth:]...))
		}
		var next []state
		for _, st := range beam {
			k := len(st.perm)
			pre := make([]int64, k+1)
			suf := make([]int64, k+1)
			for i := 0; i < k; i++ {
				pre[i+1] = pre[i] + p.CostBefore(st.perm[i], x)
			}
			for i := k - 1; i >= 0; i-- {
				suf[i] = suf[i+1] + p.CostBefore(x, st.perm[i])
			}
			for q := 0; q <= k; q++ {
				np := make([]int, k+1)
				copy(np, st.perm[:q])
				np[q] = x
				copy(np[q+1:], st.perm[q:])
				next = append(next, state{perm: np, cost: st.cost + pre[q] + suf[q]})
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i].cost < next[j].cost })
		if len(next) > width {
			next = next[:width]
		}
		beam = next
	}
	return rankings.FromPermutation(beam[0].perm)
}

func bordaOrderAll(d *rankings.Dataset) []int {
	elems := make([]int, d.N)
	for i := range elems {
		elems[i] = i
	}
	return bordaOrder(d, elems)
}

func init() {
	core.Register("BnB", func() core.Aggregator { return &BnB{TimeLimit: 5 * time.Minute} })
	core.Register("BnBBeam", func() core.Aggregator { return &BnBBeam{Width: 32} })
}
