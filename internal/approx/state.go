package approx

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"rankagg/internal/rankings"
)

// LehmerState is the delta-maintainable form of Lehmer aggregation: per
// element, the sorted multiset of its Lehmer coordinates across the
// rankings that CONTAIN it. Rankings an element is absent from contribute
// implicit zeros (the virtual-last-bucket rule), tracked only through the
// ranking count m — they cost nothing to store and nothing to update. The
// coordinate-wise lower median is then an O(1) lookup per element, the
// consensus one decode pass, and AddRanking/RemoveRanking touch only the
// O(L) explicit coordinates of the delta ranking in O(L·(log L + log m))
// plus multiset shifting.
//
// LehmerState is not safe for concurrent use; callers (rankagg's
// ApproxSession) serialize access.
type LehmerState struct {
	n, m int
	// lists[e] holds the explicit coordinates of element e, ascending. The
	// bulk build packs them into one shared backing array with len == cap
	// per element, so an incremental insert reallocates that element's list
	// and never clobbers a neighbor.
	lists [][]int32
	enc   *encoder
}

// BuildLehmer encodes every ranking of d across workers (see encodeAll for
// the cancellation and worker-invariance contracts) and assembles the
// per-element coordinate multisets, sharded by element range — the
// assembly is deterministic for any worker count because each worker
// visits the rankings in index order and sorts its own element span.
func BuildLehmer(ctx context.Context, d *rankings.Dataset, workers int) (*LehmerState, error) {
	if err := CheckInput(d); err != nil {
		return nil, err
	}
	n := d.N
	rcs, err := encodeAll(ctx, d, workers)
	if err != nil {
		return nil, err
	}

	// Per-element slot counts: one per containing ranking. Complete
	// rankings cover every element, so they are a single shared addend.
	complete := int32(0)
	counts := make([]int32, n)
	for i := range rcs {
		if rcs[i].dense != nil {
			complete++
			continue
		}
		for _, e := range rcs[i].elems {
			counts[e]++
		}
	}
	off := make([]int, n+1)
	total := 0
	for e := 0; e < n; e++ {
		off[e] = total
		total += int(counts[e] + complete)
	}
	off[n] = total
	backing := make([]int32, total)
	st := &LehmerState{n: n, m: d.M(), lists: make([][]int32, n), enc: newEncoder(n)}
	for e := 0; e < n; e++ {
		// Full-slice expression: len 0 now, cap exactly this element's
		// span, so appends past the bulk fill reallocate instead of
		// running into the next element's region.
		st.lists[e] = backing[off[e]:off[e]:off[e+1]]
	}

	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	fill := func(lo, hi int) {
		for j := range rcs {
			if cancelled(ctx) {
				return
			}
			rc := &rcs[j]
			if rc.dense != nil {
				for e := lo; e < hi; e++ {
					st.lists[e] = append(st.lists[e], rc.dense[e])
				}
				continue
			}
			k, _ := slices.BinarySearch(rc.elems, int32(lo))
			for ; k < len(rc.elems) && int(rc.elems[k]) < hi; k++ {
				e := rc.elems[k]
				st.lists[e] = append(st.lists[e], rc.codes[k])
			}
		}
		for e := lo; e < hi; e++ {
			slices.Sort(st.lists[e])
		}
	}
	if workers == 1 {
		fill(0, n)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := n*w/workers, n*(w+1)/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				fill(lo, hi)
			}()
		}
		wg.Wait()
	}
	if cancelled(ctx) {
		return nil, context.Canceled
	}
	return st, nil
}

// M returns the number of rankings the state currently aggregates.
func (st *LehmerState) M() int { return st.m }

// Median returns the coordinate-wise lower median of the m code vectors:
// element e sees m − len(lists[e]) implicit zeros ahead of its sorted
// explicit coordinates, so the k-th order statistic is an O(1) lookup.
func (st *LehmerState) Median() []int32 {
	k := (st.m - 1) / 2
	med := make([]int32, st.n)
	for e, l := range st.lists {
		if z := st.m - len(l); k >= z {
			med[e] = l[k-z]
		}
	}
	return med
}

// Consensus decodes the median code vector into the consensus permutation.
func (st *LehmerState) Consensus() *rankings.Ranking {
	return rankings.FromPermutation(decode(st.Median(), st.enc.f))
}

// Add folds one more ranking into the state: encode it (compact when
// truncated) and insert each explicit coordinate into its element's sorted
// multiset.
func (st *LehmerState) Add(r *rankings.Ranking) {
	rc := st.enc.encode(r)
	rc.forEach(func(e int, c int32) {
		l := st.lists[e]
		i, _ := slices.BinarySearch(l, c)
		st.lists[e] = slices.Insert(l, i, c)
	})
	st.m++
}

// Remove unfolds a ranking previously aggregated into the state. The
// Lehmer code is a pure function of the bucket sequence, so re-encoding r
// yields exactly the coordinates its earlier Add inserted; each is deleted
// from its multiset. The caller guarantees a bucket-order-equal ranking is
// in the aggregated set — a missing coordinate means the state and the
// caller's dataset have diverged, reported as an error with the state left
// partially unwound (the caller discards it).
func (st *LehmerState) Remove(r *rankings.Ranking) error {
	rc := st.enc.encode(r)
	var missing error
	rc.forEach(func(e int, c int32) {
		if missing != nil {
			return
		}
		l := st.lists[e]
		i, ok := slices.BinarySearch(l, c)
		if !ok {
			missing = fmt.Errorf("approx: lehmer state lost coordinate (element %d, code %d); state diverged from dataset", e, c)
			return
		}
		st.lists[e] = slices.Delete(l, i, i+1)
	})
	if missing != nil {
		return missing
	}
	st.m--
	return nil
}

// bytesPerElement is what one element of the universe costs a served
// request of this tier at most, whatever the rankings hold. It is
// measured, not summed: a Lehmer request over a one-list dataset
// allocates about 120 bytes per element at n = 10⁵ — the build's lists,
// offsets and encoders, the consensus decode and its singleton-bucket
// ranking, the scoring pass's positions, and the consensus JSON of the
// response — and a request that also stores its result about 136 (140 at
// n = 10⁶, longer numbers making longer JSON). The score-based family
// needs under half of that. TestApproxBudgetCoversAllocation in
// internal/server keeps every family under this figure.
const bytesPerElement = 160

// PredictBytes returns the bytes a served request of this tier allocates
// for a universe of n elements, apart from what grows with the rankings
// themselves (those arrived in the request, so the request size bounds
// them). A tiny request can declare an arbitrarily large n; admission
// control checks this figure before anything of size n is allocated. It
// saturates at math.MaxInt64.
func PredictBytes(n int) int64 {
	if n > math.MaxInt64/bytesPerElement {
		return math.MaxInt64
	}
	return bytesPerElement * int64(max(n, 0))
}

// Bytes approximates the state's resident size: the per-element slice
// headers and coordinate storage plus the encoder scratch. Byte-budgeted
// caches use it as the entry weight.
func (st *LehmerState) Bytes() int64 {
	b := int64(st.n) * 24
	for _, l := range st.lists {
		b += int64(cap(l)) * 4
	}
	return b + int64(st.n)*12 // encoder: full fenwick + id map
}

// ScoreState is the delta-maintainable form of ScoreRank aggregation. With
// absent(l) the doubled rank a length-l ranking charges an element it does
// not contain, the decomposition
//
//	total[e] = base + adj[e],  base = Σ_j absent(l_j),
//	adj[e] = Σ_{j ∋ e} (dr_j(e) − absent(l_j))
//
// makes every ranking an O(L) update touching only its present elements:
// absent contributions ride in base and cancel exactly for the rankings
// that do contain e. The equality is plain integer arithmetic, so the
// consensus is identical to the batch accumulation for any add/remove
// history. Not safe for concurrent use.
type ScoreState struct {
	n, m       int
	optimistic bool
	base       int64
	adj        []int64
}

// BuildScore accumulates every ranking of d into a fresh ScoreState,
// sharding the per-ranking passes across workers with per-worker
// accumulators (int64 addition commutes, so the merged totals are
// worker-count invariant) and polling ctx between rankings.
func BuildScore(ctx context.Context, d *rankings.Dataset, optimistic bool, workers int) (*ScoreState, error) {
	if err := CheckInput(d); err != nil {
		return nil, err
	}
	st := &ScoreState{n: d.N, m: d.M(), optimistic: optimistic, adj: make([]int64, d.N)}
	m := d.M()
	if workers > m {
		workers = m
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		for _, r := range d.Rankings {
			if cancelled(ctx) {
				return nil, context.Canceled
			}
			st.accumulate(r, 1, &st.base, st.adj)
		}
		return st, nil
	}
	bases := make([]int64, workers)
	adjs := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		adjs[w] = make([]int64, d.N)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < m; j += workers {
				if cancelled(ctx) {
					return
				}
				st.accumulate(d.Rankings[j], 1, &bases[w], adjs[w])
			}
		}(w)
	}
	wg.Wait()
	if cancelled(ctx) {
		return nil, context.Canceled
	}
	for w := 0; w < workers; w++ {
		st.base += bases[w]
		for e, v := range adjs[w] {
			st.adj[e] += v
		}
	}
	return st, nil
}

// M returns the number of rankings the state currently aggregates.
func (st *ScoreState) M() int { return st.m }

func (st *ScoreState) absent(l int) int64 {
	if st.optimistic {
		return int64(2 * (l + 1))
	}
	return int64(st.n + l + 1)
}

// accumulate folds r into the given accumulators with the given sign
// (+1 add, −1 remove) in O(L).
func (st *ScoreState) accumulate(r *rankings.Ranking, sign int64, base *int64, adj []int64) {
	a := st.absent(r.Len())
	p := 1
	for _, b := range r.Buckets {
		dr := int64(2*p + len(b) - 1)
		for _, e := range b {
			adj[e] += sign * (dr - a)
		}
		p += len(b)
	}
	*base += sign * a
}

// Add folds one more ranking into the totals in O(L).
func (st *ScoreState) Add(r *rankings.Ranking) {
	st.accumulate(r, 1, &st.base, st.adj)
	st.m++
}

// Remove unfolds a previously aggregated ranking in O(L). Exact integer
// inverse of Add — no drift, whatever the history.
func (st *ScoreState) Remove(r *rankings.Ranking) {
	st.accumulate(r, -1, &st.base, st.adj)
	st.m--
}

// Consensus orders elements by ascending total and ties exact equals,
// identically to ScoreRank.AggregateCtx's batch path.
func (st *ScoreState) Consensus() *rankings.Ranking {
	total := make([]int64, st.n)
	for e := range total {
		total[e] = st.base + st.adj[e]
	}
	return scoreBuckets(total)
}

// Bytes approximates the state's resident size for byte-budgeted caches.
func (st *ScoreState) Bytes() int64 {
	return int64(st.n)*8 + 64
}
