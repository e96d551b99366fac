package approx

import (
	"context"

	"rankagg/internal/core"
	"rankagg/internal/rankings"
)

func init() {
	core.Register("lehmer", func() core.Aggregator { return Lehmer{} })
}

// Lehmer aggregates rankings through their Lehmer codes (inversion
// vectors): code each ranking, take the coordinate-wise median across the
// m codes, and decode the median vector back into a permutation. The
// coordinate system is chosen so that every coordinate satisfies
// 0 ≤ code[e] ≤ e, which makes ANY coordinate-wise aggregate — in
// particular the median — decodable without clamping.
//
// Ties and absent elements are handled by the unified model: tied elements
// contribute nothing to each other's coordinates, and absent elements sit
// in a virtual bucket after the last real one. The decoded consensus is
// always a strict permutation of the full universe.
//
// The engine is truncation-aware and parallel: a length-L list encodes
// over the compacted id space of its present elements in O(L log L)
// (encoder.encodeCompact — the absent mass is closed-form), the
// per-ranking passes shard across the RunOptions worker budget, and the
// consensus is invariant to the worker count. A toplists dataset therefore
// costs O(Σ L_i log L_i) to encode instead of O(m·n log n).
type Lehmer struct{}

// Name implements core.Aggregator.
func (Lehmer) Name() string { return "lehmer" }

// MatrixFree marks the algorithm for the approximation tier
// (core.MatrixFreeAggregator): no pair matrix is ever built or read.
func (Lehmer) MatrixFree() {}

// AggregateCtx implements core.Aggregator: encode passes shard across
// opts.WorkerBudget() and poll ctx between rankings, so a client
// disconnect aborts a large-m run promptly with context.Canceled. An
// expired deadline does NOT truncate the run — the encode is bounded work
// with no meaningful incumbent, so it completes and returns the full
// consensus (DeadlineHit stays false), the matrix-free analogue of the
// exact tier keeping its best solution.
func (Lehmer) AggregateCtx(ctx context.Context, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, error) {
	st, err := BuildLehmer(ctx, d, opts.WorkerBudget())
	if err != nil {
		return nil, err
	}
	return &core.RunResult{Consensus: st.Consensus()}, nil
}

// codeRanking writes the ties-aware Lehmer code of r over a universe of n
// elements into code: code[e] = |{e' < e : e' ranked strictly after e}|,
// where "after" includes the virtual last bucket holding the elements
// absent from r. Elements tied with e (same bucket, or both absent)
// contribute nothing, so 0 ≤ code[e] ≤ e always holds. One Fenwick pass
// over the buckets from worst to best — querying a whole bucket before
// inserting it, so ties cost zero — gives O(n log n).
func codeRanking(r *rankings.Ranking, n int, f *fenwick, code []int32) {
	f.zero()
	pos := r.Positions(n)
	// Virtual last bucket first: absent elements have nothing ranked after
	// them, so their coordinate is 0; they then count toward every present
	// element's coordinate.
	for e, p := range pos {
		if p == 0 {
			code[e] = 0
			f.add(e, 1)
		}
	}
	for i := len(r.Buckets) - 1; i >= 0; i-- {
		b := r.Buckets[i]
		for _, e := range b {
			code[e] = f.prefix(e)
		}
		for _, e := range b {
			f.add(e, 1)
		}
	}
}

// decode inverts a Lehmer code into its permutation, best to worst: element
// e has code[e] smaller elements ranked after it, hence e−code[e] before
// it, so — placing elements from largest to smallest — e lands in the
// (e−code[e]+1)-th still-free slot. Fenwick select makes each placement
// O(log n).
func decode(code []int32, f *fenwick) []int {
	n := len(code)
	f.ones()
	perm := make([]int, n)
	for e := n - 1; e >= 0; e-- {
		slot := f.selectKth(int32(e) - code[e] + 1)
		perm[slot] = e
		f.add(slot, -1)
	}
	return perm
}

// fenwick is a binary indexed tree over n slots (1-indexed internally):
// point add, prefix sum and k-th-set-slot selection in O(log n) each. One
// tree is reused across rankings — zero/ones refills are O(n) with no
// allocation.
type fenwick struct {
	tree  []int32
	hibit int // largest power of two ≤ slot count
}

func newFenwick(n int) *fenwick {
	hb := 1
	for hb<<1 <= n {
		hb <<= 1
	}
	return &fenwick{tree: make([]int32, n+1), hibit: hb}
}

func (f *fenwick) zero() { clear(f.tree) }

// resize repoints the tree at n slots, zeroed, reusing the backing array
// when it is large enough — the compact encoder calls this once per
// truncated ranking, so the refill is O(L), not O(max L seen).
func (f *fenwick) resize(n int) {
	if cap(f.tree) < n+1 {
		f.tree = make([]int32, n+1)
	} else {
		f.tree = f.tree[:n+1]
		clear(f.tree)
	}
	hb := 1
	for hb<<1 <= n {
		hb <<= 1
	}
	f.hibit = hb
}

// ones fills every slot with 1 directly (tree[i] covers i&-i slots).
func (f *fenwick) ones() {
	for i := 1; i < len(f.tree); i++ {
		f.tree[i] = int32(i & -i)
	}
}

func (f *fenwick) add(i int, v int32) {
	for i++; i < len(f.tree); i += i & -i {
		f.tree[i] += v
	}
}

// prefix returns the sum over slots [0, i).
func (f *fenwick) prefix(i int) int32 {
	var s int32
	for ; i > 0; i -= i & -i {
		s += f.tree[i]
	}
	return s
}

// selectKth returns the 0-indexed slot holding the k-th set entry
// (1-indexed k) by binary lifting down the implicit tree.
func (f *fenwick) selectKth(k int32) int {
	pos := 0
	for bit := f.hibit; bit > 0; bit >>= 1 {
		if next := pos + bit; next < len(f.tree) && f.tree[next] < k {
			pos = next
			k -= f.tree[next]
		}
	}
	return pos
}
