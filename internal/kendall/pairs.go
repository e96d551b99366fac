package kendall

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"rankagg/internal/rankings"
)

// Pairs holds, for every ordered pair of elements, the number of input
// rankings that order them each way or tie them. It is the O(n²)-memory
// substrate shared by most aggregation algorithms (BioConsert, KwikSort,
// FaginDyn, the exact methods, the LPB objective weights w_{a<b}, w_{a≤b},
// ...). Pairs where either element is absent from a ranking are not counted
// by that ranking.
//
// The storage is representation-polymorphic, chosen at build time by a
// MatrixMode (see NewPairsMode) along three axes:
//
//   - count width: int32, int16 or int8 planes. A count never exceeds m,
//     so the narrow widths are always safe while m stays below
//     MaxInt16Rankings / MaxInt8Rankings (deltas promote first otherwise).
//   - derived tied: on complete datasets the tied plane is not stored at
//     all — tied(a,b) = m − before(a,b) − after(a,b), cutting a third of
//     the planes.
//   - tiled row pairs: derived matrices pack each element's before row
//     and after row into one contiguous 2n-count tile (before counts
//     first, then after), so a placement scan streams a single
//     L1/L2-resident block per element instead of striding two planes n²
//     counts apart. The tiles are a permutation of the two planar planes:
//     same counts, same total bytes, no padding.
//
// Every accessor reads identically across backends; hot loops dispatch
// once on Width() and run a generic (kendall.Count) scan over the typed
// rows of Rows8/Rows16/Rows32 — which alias the tile halves on a tiled
// matrix, so the same monomorphized loop serves every layout.
//
// A Pairs value built by NewPairs is safe for concurrent readers: one
// matrix can be shared by any number of algorithms running in parallel
// (see core.RunOptions.Pairs). The Add/Remove delta methods mutate the
// matrix in place and must never race with readers — mutating callers
// (rankagg.Session) Clone first so in-flight readers keep an immutable
// snapshot. Compact returns a NEW value, so the same copy-on-write swap
// discipline covers re-compaction too.
type Pairs struct {
	N int
	// M is the number of input rankings the matrix was built from.
	M int
	// Complete records whether every ranking covered the whole universe; it
	// then holds that Before(a,b) + Before(b,a) + Tied(a,b) = M for every
	// pair, an invariant hot loops exploit (see algo.searchState).
	Complete bool
	// Version counts the in-place mutations (Add/Remove) applied to this
	// value since its construction (a fresh build is version 0). Callers
	// that hand a matrix across a mutation boundary compare versions to
	// detect staleness; rankagg.Session additionally restamps it so a
	// session's matrix version always matches the session's own mutation
	// count. Compact carries the version over unchanged — it swaps the
	// representation, not the content.
	Version uint64
	// incomplete counts the rankings not covering the whole universe, so
	// Complete stays derivable (incomplete == 0) as rankings are added and
	// removed.
	incomplete int
	// mode is the MatrixMode the matrix was built under. Deltas may walk
	// the representation away from what the mode would choose (widening,
	// tied materialization, un-tiling); Compact re-resolves the mode
	// against the current shape and converts back.
	mode MatrixMode
	// rep is the concrete layout in use. Exactly one width family below is
	// non-nil; on a tiled layout the before buffer holds the row-pair
	// tiles and the after/tied buffers are nil.
	rep repr
	b32 []int32 // before[a*N+b] (planar) or row-pair tiles (tiled)
	a32 []int32 // after[a*N+b] = before[b*N+a], kept for row-local reads
	t32 []int32 // tied[a*N+b] = #rankings tying a and b (nil when derived)
	b16 []int16
	a16 []int16
	t16 []int16
	b8  []int8
	a8  []int8
	t8  []int8
}

// NewPairs computes the pair matrix of a dataset in the default ModeAuto
// representation (leanest backend the dataset admits). The accumulation
// iterates bucket-pair runs of each ranking (every counted pair costs
// exactly one increment, with no per-pair branching) and is sharded across
// runtime.NumCPU() workers with per-worker accumulators merged at the end,
// so the result is byte-identical to a sequential build.
func NewPairs(d *rankings.Dataset) *Pairs {
	return newPairsWorkersMode(d, 0, ModeAuto)
}

// NewPairsMode is NewPairs with an explicit storage representation; see
// MatrixMode for the choices. Counts are identical across modes — only
// the backing memory (Bytes) differs.
func NewPairsMode(d *rankings.Dataset, mode MatrixMode) *Pairs {
	return newPairsWorkersMode(d, 0, mode)
}

// NewPairsUntiled builds the mode's layout with row-pair tiling forced
// off: on complete datasets that is the planar derived layout (two
// separate n² planes) the compact backends used before tiling existed.
// Tests use it to check the scan engine on the planar layout and as a
// conversion source for Compact; library code should always use
// NewPairs/NewPairsMode.
func NewPairsUntiled(d *rankings.Dataset, mode MatrixMode) *Pairs {
	p := newPairsShell(d, mode)
	p.rep.tiled = false
	p.alloc()
	p.build(d, 0)
	return p
}

// maxExtraAccBytes bounds the memory spent on per-worker accumulators; the
// worker count is lowered to fit (down to a sequential build).
const maxExtraAccBytes = 1 << 30

// newPairsWorkersMode allocates the representation the mode resolves to
// for this dataset and runs the sharded bucket-run accumulation into it.
func newPairsWorkersMode(d *rankings.Dataset, workers int, mode MatrixMode) *Pairs {
	p := newPairsShell(d, mode)
	p.alloc()
	p.build(d, workers)
	return p
}

// newPairsShell fills the metadata and resolves the layout, leaving the
// planes unallocated.
func newPairsShell(d *rankings.Dataset, mode MatrixMode) *Pairs {
	p := &Pairs{
		N:          d.N,
		M:          len(d.Rankings),
		Complete:   d.Complete(),
		incomplete: countIncomplete(d),
		mode:       mode,
	}
	p.rep = mode.resolve(p.M, p.Complete)
	return p
}

// alloc creates the zeroed planes of p.rep: three planar planes when the
// tied plane is stored, two planar planes for the untiled derived layout,
// or one 2n² row-pair buffer (held in the before field) when tiled.
func (p *Pairs) alloc() {
	n := p.N
	bn := n * n
	if p.rep.tiled {
		bn = 2 * n * n
	}
	switch p.rep.width {
	case 4:
		p.b32 = make([]int32, bn)
		if !p.rep.tiled {
			p.a32 = make([]int32, n*n)
			if !p.rep.derived {
				p.t32 = make([]int32, n*n)
			}
		}
	case 2:
		p.b16 = make([]int16, bn)
		if !p.rep.tiled {
			p.a16 = make([]int16, n*n)
			if !p.rep.derived {
				p.t16 = make([]int16, n*n)
			}
		}
	default:
		p.b8 = make([]int8, bn)
		if !p.rep.tiled {
			p.a8 = make([]int8, n*n)
			if !p.rep.derived {
				p.t8 = make([]int8, n*n)
			}
		}
	}
}

// build runs the sharded accumulation into p's allocated planes. On a
// tiled layout the before counts are accumulated straight into the tile
// halves (row stride 2n) and the after halves are filled by one strided
// transpose at the end — no planar staging copy.
func (p *Pairs) build(d *rankings.Dataset, workers int) {
	n := p.N
	rs, ao := n, 0
	if p.rep.tiled {
		rs, ao = 2*n, n
	}
	switch p.rep.width {
	case 4:
		a := p.a32
		if p.rep.tiled {
			a = p.b32
		}
		buildPlanes(d, workers, p.b32, a, p.t32, rs, ao)
	case 2:
		a := p.a16
		if p.rep.tiled {
			a = p.b16
		}
		buildPlanes(d, workers, p.b16, a, p.t16, rs, ao)
	default:
		a := p.a8
		if p.rep.tiled {
			a = p.b8
		}
		buildPlanes(d, workers, p.b8, a, p.t8, rs, ao)
	}
}

// buildPlanes runs the sharded accumulation into a concrete set of planes
// (tied may be nil — the derived layout; after may alias before — the
// tiled layout, with before rows at stride rs and after rows ao counts
// further in). Worker 0 accumulates straight into the result; the others
// get their own compact planar arrays, summed in afterwards. Count
// addition commutes, so any schedule produces identical planes, and
// partial sums never exceed the final count ≤ m, so the narrow width
// cannot overflow mid-merge either.
func buildPlanes[T Count](d *rankings.Dataset, workers int, before, after, tied []T, rs, ao int) {
	n := d.N
	m := len(d.Rankings)
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > m {
		workers = m
	}
	planes := int64(2)
	if tied == nil {
		planes = 1
	}
	perWorker := planes * int64(n) * int64(n) * int64(unsafe.Sizeof(*new(T)))
	for workers > 1 && int64(workers-1)*perWorker > maxExtraAccBytes {
		workers--
	}
	if workers <= 1 || n < 2 {
		for _, r := range d.Rankings {
			accumulatePairs(before, tied, n, rs, r)
		}
	} else {
		extras := make([][2][]T, workers-1)
		var next int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			bacc, tacc := before, tied
			brs := rs
			if w > 0 {
				bacc = make([]T, n*n)
				brs = n
				if tied != nil {
					tacc = make([]T, n*n)
				}
				extras[w-1] = [2][]T{bacc, tacc}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= m {
						return
					}
					accumulatePairs(bacc, tacc, n, brs, d.Rankings[i])
				}
			}()
		}
		wg.Wait()
		for _, acc := range extras {
			addInto(before, rs, acc[0], n, n)
			if tied != nil {
				addInto(tied, n, acc[1], n, n)
			}
		}
	}
	transposeStride(after, rs, ao, before, rs, n)
}

// accumulatePairs adds one ranking's pair counts. For each bucket, every
// member ties with its bucket-mates and precedes every element of every
// later bucket — absent elements are simply never visited, and the diagonal
// stays zero (the self-tie increment is undone without a branch). The
// ranking is flattened first so the hot loop is a single run over a
// contiguous suffix. Before rows start at stride rs (2n on the tiled
// layout, whose after halves are filled later by the transpose); tied may
// be nil (derived layout): tie counts are then implicit in
// m − before − after and nothing needs writing.
func accumulatePairs[T Count](before, tied []T, n, rs int, r *rankings.Ranking) {
	bs := r.Buckets
	flat := make([]int, 0, n)
	for _, b := range bs {
		flat = append(flat, b...)
	}
	off := 0
	for _, bi := range bs {
		off += len(bi)
		rest := flat[off:] // elements of all later buckets
		for _, a := range bi {
			if tied != nil {
				trow := tied[a*n : a*n+n]
				for _, b := range bi {
					trow[b]++
				}
				trow[a]--
			}
			brow := before[a*rs : a*rs+n]
			for _, b := range rest {
				brow[b]++
			}
		}
	}
}

// countIncomplete returns how many rankings do not cover the whole
// universe, the counter behind the Complete flag's delta maintenance.
func countIncomplete(d *rankings.Dataset) int {
	c := 0
	for _, r := range d.Rankings {
		if r.Len() != d.N {
			c++
		}
	}
	return c
}

// addInto accumulates src's n×n rows (stride ss) into dst's rows (stride
// ds).
func addInto[T Count](dst []T, ds int, src []T, ss, n int) {
	for a := 0; a < n; a++ {
		drow := dst[a*ds : a*ds+n]
		srow := src[a*ss : a*ss+n]
		for i, v := range srow {
			drow[i] += v
		}
	}
}

// transposeStride fills dst rows (stride ds, offset doff into each row)
// with the transpose of src rows (stride ss), in cache-friendly blocks:
// dst[b*ds+doff+a] = src[a*ss+b]. With dst == src, ds == ss == 2n and
// doff == n it fills the after halves of the row-pair tiles in place.
func transposeStride[T Count](dst []T, ds, doff int, src []T, ss, n int) {
	const tb = 64
	for i0 := 0; i0 < n; i0 += tb {
		iMax := i0 + tb
		if iMax > n {
			iMax = n
		}
		for j0 := 0; j0 < n; j0 += tb {
			jMax := j0 + tb
			if jMax > n {
				jMax = n
			}
			for i := i0; i < iMax; i++ {
				row := src[i*ss : i*ss+n]
				for j := j0; j < jMax; j++ {
					dst[j*ds+doff+i] = row[j]
				}
			}
		}
	}
}

// Bytes returns the memory footprint of the matrix storage — the real
// backing size of the representation in use, not a fixed formula: 2 or 3
// planes of n² counts at 1, 2 or 4 bytes each (the row-pair tiles are a
// permutation of the two derived planes and cost the same). A
// byte-budgeted cache (the serving layer's matrix LRU) charges entries by
// this value, so leaner backends directly buy more cached sessions per
// -cache-bytes.
func (p *Pairs) Bytes() int64 {
	return p.rep.bytes(p.N)
}

// Width returns the count storage width in bits: 8, 16 or 32. Hot loops
// dispatch on it once and run a generic scan over the matching
// Rows8/Rows16/Rows32 typed rows.
func (p *Pairs) Width() int { return 8 * p.rep.width }

// Wide reports whether counts are stored as int32 (Width() == 32), the
// historical two-way dispatch predating the int8 backend.
func (p *Pairs) Wide() bool { return p.rep.width == 4 }

// DerivedTied reports that the tied plane is not stored: Tied(a,b) is
// derived as M − Before(a,b) − Before(b,a), which requires (and implies)
// a complete dataset. Rows8/Rows16/Rows32 then return a nil tied row.
func (p *Pairs) DerivedTied() bool { return p.rep.derived }

// Tiled reports the row-pair layout: each element's before and after rows
// are stored as one contiguous 2n-count tile. Tiled implies DerivedTied.
func (p *Pairs) Tiled() bool { return p.rep.tiled }

// Layout names the concrete representation for logs and metrics: the
// width ("int32", "int16", "int8"), "-derived" when the tied plane is
// dropped, and "-tiled/<w>" with the tile width in counts (2n: one
// before row and one after row per tile) for the row-pair layout.
func (p *Pairs) Layout() string {
	s := "int32"
	switch p.rep.width {
	case 2:
		s = "int16"
	case 1:
		s = "int8"
	}
	if p.rep.tiled {
		return fmt.Sprintf("%s-tiled/%d", s, 2*p.N)
	}
	if p.rep.derived {
		s += "-derived"
	}
	return s
}

// Rows32 returns rows a of the before, after and tied planes of an int32
// (Width 32) matrix; tied is nil in derived-tied mode (the caller then
// holds Complete and can use before + after + tied = M). On a tiled
// matrix the two slices are the halves of row a's tile — adjacent in
// memory, which is the whole point. The slices alias the matrix and must
// not be modified. Calling it on another width panics.
func (p *Pairs) Rows32(a int) (before, after, tied []int32) {
	return rowsOf(p, p.b32, p.a32, p.t32, a)
}

// Rows16 is Rows32 for the int16 backend; see there.
func (p *Pairs) Rows16(a int) (before, after, tied []int16) {
	return rowsOf(p, p.b16, p.a16, p.t16, a)
}

// Rows8 is Rows32 for the int8 backend; see there.
func (p *Pairs) Rows8(a int) (before, after, tied []int8) {
	return rowsOf(p, p.b8, p.a8, p.t8, a)
}

func rowsOf[T Count](p *Pairs, b, aft, t []T, a int) (before, after, tied []T) {
	n := p.N
	if p.rep.tiled {
		row := b[2*a*n : 2*a*n+2*n]
		return row[:n:n], row[n:], nil
	}
	before = b[a*n : a*n+n]
	after = aft[a*n : a*n+n]
	if t != nil {
		tied = t[a*n : a*n+n]
	}
	return before, after, tied
}

// before64 and after64 read one (a, b) count through the width and layout
// dispatch (scalar accessors; hot loops use the typed rows instead).
func (p *Pairs) before64(a, b int) int64 {
	i := a*p.N + b
	if p.rep.tiled {
		i = 2*a*p.N + b
	}
	switch p.rep.width {
	case 4:
		return int64(p.b32[i])
	case 2:
		return int64(p.b16[i])
	}
	return int64(p.b8[i])
}

func (p *Pairs) after64(a, b int) int64 {
	if p.rep.tiled {
		i := (2*a+1)*p.N + b
		switch p.rep.width {
		case 4:
			return int64(p.b32[i])
		case 2:
			return int64(p.b16[i])
		}
		return int64(p.b8[i])
	}
	i := a*p.N + b
	switch p.rep.width {
	case 4:
		return int64(p.a32[i])
	case 2:
		return int64(p.a16[i])
	}
	return int64(p.a8[i])
}

// tiedPair returns the tie count of (a, b), deriving it from
// M − before − after when the plane is not stored (diagonal pinned to 0,
// as a stored plane would hold).
func (p *Pairs) tiedPair(a, b int) int64 {
	if !p.rep.derived {
		i := a*p.N + b
		switch p.rep.width {
		case 4:
			return int64(p.t32[i])
		case 2:
			return int64(p.t16[i])
		}
		return int64(p.t8[i])
	}
	if a == b {
		return 0
	}
	return int64(p.M) - p.before64(a, b) - p.after64(a, b)
}

// Before returns the number of rankings placing a strictly before b.
func (p *Pairs) Before(a, b int) int { return int(p.before64(a, b)) }

// Tied returns the number of rankings tying a and b.
func (p *Pairs) Tied(a, b int) int { return int(p.tiedPair(a, b)) }

// CostBefore returns the disagreement cost of placing a strictly before b in
// the consensus: every input ranking with b before a, or with a and b tied,
// disagrees (w_{b≤a} in the LPB objective of Section 4.2).
func (p *Pairs) CostBefore(a, b int) int64 {
	if p.rep.derived {
		// after + tied = after + (M − before − after) = M − before.
		if a == b {
			return 0
		}
		return int64(p.M) - p.before64(a, b)
	}
	return p.after64(a, b) + p.tiedPair(a, b)
}

// CostTied returns the disagreement cost of tying a and b in the consensus:
// every input ranking ordering them strictly disagrees (w_{a<b} + w_{a>b}).
func (p *Pairs) CostTied(a, b int) int64 {
	return p.before64(a, b) + p.after64(a, b)
}

// MinPairCost returns min(cost(a<b), cost(b<a), cost(a=b)) for the pair — the
// per-pair lower bound used by the exact branch & bound.
func (p *Pairs) MinPairCost(a, b int) int64 {
	c := p.CostBefore(a, b)
	if v := p.CostBefore(b, a); v < c {
		c = v
	}
	if v := p.CostTied(a, b); v < c {
		c = v
	}
	return c
}

// LowerBound returns Σ_{a<b} MinPairCost(a, b) over the given elements: a
// valid lower bound on the generalized Kemeny score of any consensus.
func (p *Pairs) LowerBound(elems []int) int64 {
	var lb int64
	for i, a := range elems {
		for _, b := range elems[i+1:] {
			lb += p.MinPairCost(a, b)
		}
	}
	return lb
}

// Score computes the generalized Kemeny score K(r, R) of a consensus from
// the pair matrix in O(n²), independent of m. The consensus must cover a
// subset of the universe; uncovered elements are ignored. It flattens the
// consensus once — its only allocation — and sums each element's matrix
// row over contiguous runs of that order, once per backend instantiation.
func (p *Pairs) Score(r *rankings.Ranking) int64 {
	n := p.N
	rs, ao := n, 0
	if p.rep.tiled {
		rs, ao = 2*n, n
	}
	switch p.rep.width {
	case 4:
		a := p.a32
		if p.rep.tiled {
			a = p.b32
		}
		return scorePlanes(n, int64(p.M), p.b32, a, p.t32, rs, ao, r)
	case 2:
		a := p.a16
		if p.rep.tiled {
			a = p.b16
		}
		return scorePlanes(n, int64(p.M), p.b16, a, p.t16, rs, ao, r)
	}
	a := p.a8
	if p.rep.tiled {
		a = p.b8
	}
	return scorePlanes(n, int64(p.M), p.b8, a, p.t8, rs, ao, r)
}

// scorePlanes is Score over one concrete backend. Before rows sit at
// stride rs in bbuf and after rows ao counts further into abuf (abuf
// aliases bbuf on the tiled layout). With the consensus flattened, the
// elements an element a precedes are one contiguous suffix of the order,
// and its bucket-mates the run just before that suffix: a costs
// CostTied = before + after against each mate and CostBefore = after +
// tied against each suffix element. With a nil tied plane (derived layout,
// hence complete) CostBefore is m − before, so the suffix sum is
// m·|suffix| − Σ before — one row load per pair instead of two.
func scorePlanes[T Count](n int, m int64, bbuf, abuf, tied []T, rs, ao int, r *rankings.Ranking) int64 {
	flat := make([]int, 0, r.Len())
	for _, b := range r.Buckets {
		flat = append(flat, b...)
	}
	var k int64
	end := 0
	for _, bi := range r.Buckets {
		start := end
		end += len(bi)
		rest := flat[end:]
		for x := start; x < end; x++ {
			a := flat[x]
			brow := bbuf[a*rs : a*rs+n]
			arow := abuf[a*rs+ao : a*rs+ao+n]
			// Separate sums for the bucket-mates and the suffix: measured
			// faster than adding every pair straight into k.
			var tie, cross int64
			for _, b := range flat[x+1 : end] {
				tie += int64(brow[b]) + int64(arow[b])
			}
			if tied == nil {
				for _, b := range rest {
					cross += int64(brow[b])
				}
				cross = m*int64(len(rest)) - cross
			} else {
				trow := tied[a*n : a*n+n]
				for _, b := range rest {
					cross += int64(arow[b]) + int64(trow[b])
				}
			}
			k += tie + cross
		}
	}
	return k
}

// MajorityPrefers reports whether strictly more rankings place a before b
// than b before a (the MC4 transition test).
func (p *Pairs) MajorityPrefers(a, b int) bool {
	return p.before64(a, b) > p.after64(a, b)
}
