package algo

import (
	"context"
	"sync"
	"sync/atomic"

	"rankagg/internal/core"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// runBestCtx evaluates runs independent randomized candidates on a bounded
// worker pool and returns the best-scoring one plus the number of runs
// completed; ties break toward the lowest run index — the order a
// sequential scan would keep, so the result is identical for any worker
// count. build(run) produces candidate number run from its own
// deterministic randomness source. Each worker scores its candidates as
// they come and keeps only its running best, a (score, run index) pair
// merged at the end, so the pool holds O(workers) candidates however many
// runs are asked for: a huge restart count is bounded by the deadline,
// not by memory. The pool stops claiming runs once ctx is done; if no run
// completed at all (deadline already expired), run 0 is built anyway — a
// single run is cheap and a consensus must exist. The fallback is skipped
// on explicit cancellation: the caller discards the result as
// context.Canceled, so building one would only delay the promised prompt
// return.
func runBestCtx(ctx context.Context, p *kendall.Pairs, runs, workers int, build func(run int) *rankings.Ranking) (*rankings.Ranking, int) {
	type candidate struct {
		r         *rankings.Ranking
		score     int64
		run, done int
	}
	bests := make([]candidate, max(min(workers, runs), 1))
	runAllCtx(ctx, runs, workers, func(w, run int) {
		r := build(run)
		s := p.Score(r)
		b := &bests[w]
		b.done++
		// A worker claims runs in increasing order, so a strictly lower
		// score is the only way a later run can win here.
		if b.r == nil || s < b.score {
			b.r, b.score, b.run = r, s, run
		}
	})
	var best candidate
	completed := 0
	for _, b := range bests {
		completed += b.done
		if b.r != nil && (best.r == nil || b.score < best.score || b.score == best.score && b.run < best.run) {
			best = b
		}
	}
	if best.r == nil && ctx.Err() != context.Canceled {
		best.r = build(0)
	}
	return best.r, completed
}

// runAllCtx executes f(w, 0..n-1) on min(workers, n) workers (sequentially
// when workers <= 1), checking ctx before each run (a run is a full
// aggregation pass — plenty of work per unthrottled check). w is the index
// of the worker running i, in [0, min(workers, n)); one worker's calls
// never overlap, and it claims its i in increasing order.
func runAllCtx(ctx context.Context, n, workers int, f func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			f(0, i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				f(w, i)
			}
		}()
	}
	wg.Wait()
}

// spareTokens is a tiny counting semaphore over the leftover share of the
// session worker budget: tokens not consumed by an algorithm's run pool
// are available to intra-run parallelism (KwikSort's recursive halves).
// tryAcquire never blocks — when the budget is spent, recursion simply
// stays sequential, so the total goroutine count never exceeds the
// budget.
type spareTokens struct{ n atomic.Int64 }

func newSpareTokens(n int) *spareTokens {
	t := &spareTokens{}
	t.n.Store(int64(n))
	return t
}

func (t *spareTokens) tryAcquire() bool {
	for {
		v := t.n.Load()
		if v <= 0 {
			return false
		}
		if t.n.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

func (t *spareTokens) release() { t.n.Add(1) }

// KwikSort implements the divide & conquer 11/7-approximation of Ailon,
// Charikar & Newman [2], adapted to ties following Section 4.1.2: a random
// pivot is chosen and every other element is placed before the pivot, after
// it, or *tied with it*, whichever minimizes its pairwise disagreement cost
// against the pivot (including the (un)tying cost). The two strict sides
// are aggregated recursively — and, when the worker budget has tokens to
// spare, concurrently: every node derives independent child seeds from its
// own seed (splitmix64) before recursing, so the consensus is identical
// for every worker count and schedule. Beyond the shared pair matrix a run
// needs O(n) memory — one element buffer, one scratch buffer and the
// bucket list cut from the first — and the best-of pool O(workers)
// candidates, which makes it the paper's recommendation for very large
// datasets (n > 30000, Section 7.4).
type KwikSort struct {
	// Runs > 1 evaluates several randomized runs and keeps the best
	// ("KwikSortMin"). RunOptions.Restarts overrides it.
	Runs int
}

// Name implements core.Aggregator.
func (a *KwikSort) Name() string {
	if a.runs() > 1 {
		return "KwikSortMin"
	}
	return "KwikSort"
}

func (a *KwikSort) runs() int {
	if a.Runs <= 0 {
		return 1
	}
	return a.Runs
}

// AggregateCtx implements core.Aggregator: runs are independent, each
// with its own run-indexed randomness derived from opts.Seed, and execute
// on a pool of opts.Workers (<= 1: sequential); the best score wins, ties
// broken by run index, so the consensus is the same for any worker count.
// The pool stops claiming runs once the context fires (each run is one
// full divide & conquer pass — the poll interval). On a deadline the best
// completed run is kept (DeadlineHit); a cancelled context returns the
// error.
func (a *KwikSort) AggregateCtx(ctx context.Context, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, error) {
	p := pairsFor(d, opts)
	runs := a.runs()
	if opts.Restarts > 0 {
		runs = opts.Restarts
	}
	workers := opts.Workers
	// Tokens the run pool leaves idle feed the recursive halves: a lone
	// run on an 8-worker budget splits its recursion across all 8, while
	// 16 runs on the same budget keep the parallelism at the run level.
	spare := workers - min(max(workers, 1), runs)
	var tok *spareTokens
	if spare > 0 {
		tok = newSpareTokens(spare)
	}
	kwikRun := newKwikRun(p, tok)
	best, completed := runBestCtx(ctx, p, runs, workers, func(run int) *rankings.Ranking {
		return kwikRun(opts.Seed + 0x6b71 + int64(run)*0x9e3779b9)
	})
	deadlineHit, err := pollOutcome(ctx)
	if err != nil {
		return nil, err
	}
	return &core.RunResult{
		Consensus:   best,
		DeadlineHit: deadlineHit,
		Stats:       core.SearchStats{Restarts: completed},
	}, nil
}

// kwikParallelMin is the smallest half worth a goroutine: below it the
// partition cost cannot amortize the spawn, and the recursion stays
// inline. Any value yields the same consensus — the cutoff only gates
// scheduling.
const kwikParallelMin = 48

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// allocation-free, well-mixed hash of its input. kwikSorter.sort uses it as a
// splittable randomness source — one node seed hashes into a pivot draw
// and two independent child seeds — instead of paying a rand.Rand
// allocation (and its 607-word seeding pass) at every recursion node.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newKwikRun returns one KwikSort pass over the universe [0, p.N) as a
// function of its seed. It dispatches on the matrix's storage width once,
// here, so every node reads its pivot's typed row pair directly. A pass
// allocates one element buffer and one scratch buffer of n ints and
// returns its buckets as capacity-limited windows of the element buffer.
func newKwikRun(p *kendall.Pairs, tok *spareTokens) func(seed int64) *rankings.Ranking {
	switch p.Width() {
	case 32:
		return kwikRunRows(p, p.Rows32, tok)
	case 16:
		return kwikRunRows(p, p.Rows16, tok)
	}
	return kwikRunRows(p, p.Rows8, tok)
}

func kwikRunRows[T kendall.Count](p *kendall.Pairs, rows func(a int) (before, after, tied []T), tok *spareTokens) func(seed int64) *rankings.Ranking {
	k := &kwikSorter[T]{rows: rows, m: int64(p.M), tok: tok}
	n := p.N
	return func(seed int64) *rankings.Ranking {
		elems, lens := make([]int, n), make([]int, n)
		for i := range elems {
			elems[i] = i
		}
		k.sort(seed, elems, lens)
		return &rankings.Ranking{Buckets: kwikBuckets(elems, lens)}
	}
}

// kwikSorter is what every node of a KwikSort pass reads: the typed pair
// rows of the matrix, its ranking count (for the derived tied counts) and
// the spare worker tokens the two halves may split over.
type kwikSorter[T kendall.Count] struct {
	rows func(a int) (before, after, tied []T)
	m    int64
	tok  *spareTokens
}

// sort partitions elems around a random pivot and recurses on the two
// strict sides, leaving elems in consensus order and, at the first
// position of every bucket, the bucket's length in scratch (kwikBuckets
// cuts the buckets from that). scratch is elems' window of the pass's
// scratch buffer: the partition stages the tied and right elements there,
// and a finished bucket's window is never staged into again. Each node
// owns a seed: three splitmix64 draws from it yield the pivot choice and
// one independent seed per child, so the bucket order is a pure function
// of (seed, elems) — parallel and sequential execution, any worker count,
// any schedule, produce identical output. When a spare worker token is
// free and both halves are big enough, the two halves run concurrently on
// their disjoint windows.
func (k *kwikSorter[T]) sort(seed int64, elems, scratch []int) {
	switch len(elems) {
	case 0:
		return
	case 1:
		scratch[0] = 1
		return
	}
	s := uint64(seed)
	pivot := elems[int(splitmix64(s)%uint64(len(elems)))]
	leftSeed, rightSeed := int64(splitmix64(s+1)), int64(splitmix64(s+2))
	before, after, tied := k.rows(pivot)
	// Stable three-way partition: the left side compacts in place at the
	// front of elems (a write never overtakes the read), the tied bucket
	// collects after the pivot at the front of scratch, and the right side
	// fills scratch from the back.
	nl, nt, nr := 0, 1, 0
	scratch[0] = pivot
	last := len(elems) - 1
	for _, e := range elems {
		if e == pivot {
			continue
		}
		// B, A, T: the rankings with the pivot before e, after e, tied
		// with e; T is derived as M − A − B when the matrix stores no tied
		// plane.
		b, a := int64(before[e]), int64(after[e])
		t := k.m - a - b
		if tied != nil {
			t = int64(tied[e])
		}
		cb, ca, ct := b+t, a+t, a+b // cost of e before, after, tied with the pivot
		switch {
		case cb <= ca && cb <= ct:
			elems[nl] = e
			nl++
		case ca <= ct:
			scratch[last-nr] = e
			nr++
		default:
			scratch[nt] = e
			nt++
		}
	}
	hi := nl + nt
	copy(elems[nl:], scratch[:nt])
	for i := range elems[hi:] {
		elems[hi+i] = scratch[last-i]
	}
	scratch[nl] = nt
	if k.tok != nil && nl >= kwikParallelMin && nr >= kwikParallelMin && k.tok.tryAcquire() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer k.tok.release()
			k.sort(leftSeed, elems[:nl], scratch[:nl])
		}()
		k.sort(rightSeed, elems[hi:], scratch[hi:])
		wg.Wait()
		return
	}
	k.sort(leftSeed, elems[:nl], scratch[:nl])
	k.sort(rightSeed, elems[hi:], scratch[hi:])
}

// kwikBuckets cuts a finished pass's element buffer into its buckets, in
// order: lens holds each bucket's length at the bucket's first position
// (the entries in between are stale scratch, stepped over).
func kwikBuckets(elems, lens []int) [][]int {
	k := 0
	for i := 0; i < len(elems); i += lens[i] {
		k++
	}
	out := make([][]int, 0, k)
	for i := 0; i < len(elems); i += lens[i] {
		j := i + lens[i]
		out = append(out, elems[i:j:j])
	}
	return out
}

func init() {
	core.Register("KwikSort", func() core.Aggregator { return &KwikSort{} })
	core.Register("KwikSortMin", func() core.Aggregator { return &KwikSort{Runs: 16} })
}
