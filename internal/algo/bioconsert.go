package algo

import (
	"context"
	"math"
	"slices"

	"rankagg/internal/core"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// BioConsert implements the local search of Cohen-Boulakia, Denise & Hamel
// [12] (Section 3.1), the algorithm the paper finds best "in a very large
// majority of the cases". It starts from a solution and applies the two
// edition operations while the generalized Kemeny score decreases:
//
//   - remove an element from its bucket and place it in a NEW bucket at any
//     position, and
//   - move an element into an already existing bucket (tying it there).
//
// By default the search is restarted from every input ranking and the best
// local optimum is returned, as in [12]. The restarts are independent and
// run on a bounded worker pool (the pair matrix is shared, read-only);
// ties between equally-scored local optima are broken by seed index, so the
// result is identical to a sequential run. Memory is O(n²) (the pair
// matrix), the scaling limit Section 7.4 notes for n > 30000.
type BioConsert struct{}

// Name implements core.Aggregator.
func (a *BioConsert) Name() string { return "BioConsert" }

// AggregateCtx implements core.Aggregator: every restart's descent polls
// the context at a bounded interval and the pool stops claiming seeds once
// it fires, so cancellation and deadlines propagate mid-descent. On a
// deadline the best state reached so far is returned (DeadlineHit); a
// cancelled context returns the error. With an undisturbed context the run
// is byte-identical to the historical sequential scan whatever the worker
// budget (opts.WorkerBudget()).
func (a *BioConsert) AggregateCtx(ctx context.Context, d *rankings.Dataset, opts core.RunOptions) (*core.RunResult, error) {
	if w := opts.WarmStart; core.IsFullRanking(w, d.N) {
		// A warm start replaces the whole restart pool: a prior consensus
		// is already (near) locally optimal, so one descent from it does
		// the work the m input-seeded descents would repeat. A warm ranking
		// that is not a valid bucket order of the universe is ignored
		// (cold policy).
		res, err := a.Refine(ctx, d, w, opts)
		if err == nil {
			res.Stats.WarmStart = true
		}
		return res, err
	}
	return restartPool(ctx, d, d.Rankings, opts)
}

// AcceptsWarmStart implements core.WarmStartable: AggregateCtx replaces its
// restart pool with a single descent from RunOptions.WarmStart.
func (a *BioConsert) AcceptsWarmStart() {}

// Refine implements Seedable: one descent from the given seed, so that
// BioConsert can itself be used as a chain stage.
func (a *BioConsert) Refine(ctx context.Context, d *rankings.Dataset, seed *rankings.Ranking, opts core.RunOptions) (*core.RunResult, error) {
	return restartPool(ctx, d, []*rankings.Ranking{seed}, opts)
}

// restartPool runs one descent from every distinct seed on a pool of
// opts.WorkerBudget() workers and keeps the best local optimum.
func restartPool(ctx context.Context, d *rankings.Dataset, seeds []*rankings.Ranking, opts core.RunOptions) (*core.RunResult, error) {
	p := pairsFor(d, opts)
	// Restarting twice from the same bucket order finds the same optimum.
	uniq := distinctSeeds(seeds, d.N)
	workers := opts.WorkerBudget()
	// Each worker owns one search state, reset for every seed it claims,
	// and keeps only its running best: a (score, seed index) pair plus a
	// flat copy of that bucket order. A worker claims seeds in increasing
	// order, so a strictly lower score is the only way a later seed wins.
	pool := make([]restartWorker, max(min(workers, len(uniq)), 1))
	runAllCtx(ctx, len(uniq), workers, func(w, i int) {
		b := &pool[w]
		if b.st == nil {
			b.st = newSearchState(p, uniq[i])
		} else {
			b.st.reset(uniq[i])
		}
		score := b.st.descend(ctx, p.Score(uniq[i]))
		if b.done == 0 || score < b.score {
			b.score, b.seed = score, i
			b.flat, b.ends = b.st.flatten(b.flat[:0], b.ends[:0])
		}
		b.done++
		b.moves += b.st.version - 1
	})
	// Deterministic best-of: lowest score, ties broken by lowest seed index
	// (the order a sequential scan would have kept).
	var best *restartWorker
	restarts := 0
	var totalMoves int64
	for w := range pool {
		b := &pool[w]
		restarts += b.done
		totalMoves += b.moves
		if b.done > 0 && (best == nil || b.score < best.score || b.score == best.score && b.seed < best.seed) {
			best = b
		}
	}
	deadlineHit, err := pollOutcome(ctx)
	if err != nil {
		return nil, err
	}
	var consensus *rankings.Ranking
	if best != nil {
		consensus = best.ranking()
	} else {
		// Deadline expired before any descent ran: fall back to the first
		// seed unrefined — still a valid consensus candidate.
		consensus = uniq[0].Clone()
	}
	return &core.RunResult{
		Consensus:   consensus,
		DeadlineHit: deadlineHit,
		Stats:       core.SearchStats{Restarts: restarts, Moves: totalMoves},
	}, nil
}

// restartWorker is one restart worker's search state and running best: the
// lowest score its descents reached, the index of the seed that reached it
// first, and that local optimum as its members in consensus order (flat)
// with each bucket's end offset (ends). done and moves count its descents
// and their applied moves.
type restartWorker struct {
	st    *searchState
	score int64
	seed  int
	flat  []int
	ends  []int
	done  int
	moves int64
}

// ranking turns the flat copy into the consensus: one bucket slice whose
// buckets are capacity-limited windows of flat.
func (b *restartWorker) ranking() *rankings.Ranking {
	r := &rankings.Ranking{Buckets: make([][]int, len(b.ends))}
	start := 0
	for i, end := range b.ends {
		r.Buckets[i] = b.flat[start:end:end]
		start = end
	}
	return r
}

// distinctSeeds returns seeds without repeats, in first-seen order (the
// order the best-of's index tie-break follows). Two seeds repeat when they
// are the same sequence of bucket sets, whatever the member order inside a
// bucket. A commutative hash of every (element, bucket index) pair screens
// the candidates and sameBucketOrder confirms a match, so no key is built;
// the screen costs one word compare per pair of distinct seeds.
func distinctSeeds(seeds []*rankings.Ranking, n int) []*rankings.Ranking {
	if len(seeds) < 2 {
		return seeds
	}
	uniq := make([]*rankings.Ranking, 0, len(seeds))
	keys := make([]uint64, 0, len(seeds))
	pos := make([]int32, n)
	for _, s := range seeds {
		var key uint64
		for i, b := range s.Buckets {
			for _, e := range b {
				key += splitmix64(uint64(e)<<32 | uint64(i))
			}
		}
		dup := false
		for i, k := range keys {
			if k == key && sameBucketOrder(uniq[i], s, pos) {
				dup = true
				break
			}
		}
		if !dup {
			uniq = append(uniq, s)
			keys = append(keys, key)
		}
	}
	return uniq
}

// sameBucketOrder reports whether a and b, two valid rankings over
// elements below len(pos), hold the same set in every bucket. pos is
// all-zero scratch and is left all-zero.
func sameBucketOrder(a, b *rankings.Ranking, pos []int32) bool {
	if len(a.Buckets) != len(b.Buckets) {
		return false
	}
	for i := range a.Buckets {
		if len(a.Buckets[i]) != len(b.Buckets[i]) {
			return false
		}
	}
	for i, bk := range a.Buckets {
		for _, e := range bk {
			pos[e] = int32(i) + 1
		}
	}
	same := true
	for i, bk := range b.Buckets {
		for _, e := range bk {
			if pos[e] != int32(i)+1 {
				same = false
			}
		}
	}
	for _, bk := range a.Buckets {
		for _, e := range bk {
			pos[e] = 0
		}
	}
	return same
}

// localSearchCtx runs BioConsert's descent from the given seed and returns
// the best state reached, its score, and the number of applied moves. The
// seed may cover a subset of the universe; only its elements are moved (and
// scored).
func localSearchCtx(ctx context.Context, p *kendall.Pairs, seed *rankings.Ranking) (*rankings.Ranking, int64, int64) {
	st := newSearchState(p, seed)
	score := st.descend(ctx, p.Score(seed))
	return st.ranking(), score, st.version - 1
}

// descend sweeps the state's elements until no element has an improving
// move and returns the score reached from score, the seed's. The score is
// maintained incrementally from the move deltas. The descent polls ctx
// every pollEvery placement scans (each O(n + k)) and stops in its current
// state when the context is done; with an undisturbed context the result
// is the exact local optimum.
func (st *searchState) descend(ctx context.Context, score int64) int64 {
	poll := searchPoll{ctx: ctx}
	for improved := true; improved; {
		improved = false
		for _, x := range st.elems {
			if poll.stop() {
				return score
			}
			if delta := st.improveElement(x); delta < 0 {
				score += delta
				improved = true
			}
		}
	}
	return score
}

// searchState is the mutable bucket order of a running local search.
// Buckets live in a slab indexed by stable int32 ids: the consensus order
// is a plain []int32 (shifted with pointer-free memmoves, no GC write
// barriers), bucketOf maps each element to its bucket id and survives every
// shift, and dead bucket ids are recycled so moves never allocate. One
// state serves many descents: reset loads the next seed into the buffers
// the previous descent grew.
type searchState struct {
	p        *kendall.Pairs
	elems    []int
	store    [][]int // bucket id → members (emptied, kept for reuse, when dead)
	free     []int32 // dead bucket ids available for reuse
	order    []int32 // bucket ids in consensus order
	idxOf    []int32 // bucket id → its position in order (stale for dead ids)
	bucketOf []int32 // element → bucket id (meaningful only for seed elements)
	// version counts applied moves; lastSeen[x] records the version at which
	// x was last found move-free, so unchanged elements skip their O(n) scan
	// (an element with no improving move still has none while the state is
	// untouched — the skip is exact, not heuristic).
	version  int64
	lastSeen []int64
	// full marks a seed covering the whole universe: bucketOf is then
	// meaningful for every matrix column, so the scatter streams the row
	// linearly instead of walking the seed's elements.
	full bool
	// packed selects the one-lane sums of bucketSums (see packedLanes),
	// once per state.
	packed bool
	// scratch of the three-cost scan (scanPlacement):
	tieCost []int64 // per existing bucket: Σ costTied(x, y∈bucket)
	befCost []int64 // per bucket: Σ costBefore(x, y) — x before the bucket
	aftCost []int64 // per bucket: Σ costBefore(y, x) — x after the bucket
	preB    []int64
	sufA    []int64
	// scat holds the scatter's per-bucket-id sums of x's row, indexed by
	// bucket id, so the fold's one random access per bucket lands on a
	// single cache line carrying everything it needs. The sums are zero
	// between scans (each readout re-zeroes what it consumes); the size
	// field is maintained by apply and is live only while scat is
	// allocated, which only the complete-dataset scans do.
	scat []bucketSums
}

// bucketSums is one bucket's slot of the scatter scratch: the sums of x's
// before and after counts over the bucket's members, and M·|bucket|. With
// packed lanes, sum carries both sums (after in the high 32 bits) and
// after stays zero; with split lanes, sum is the before sum alone.
type bucketSums struct {
	sum   uint64
	after uint64
	size  uint64
}

// add adds one column's before count b and after count a.
func (s *bucketSums) add(b, a uint64, packed bool) {
	if packed {
		s.sum += b | a<<32
	} else {
		s.sum += b
		s.after += a
	}
}

// take returns the before sum, the after sum and M·|bucket|, and re-zeroes
// the sums.
func (s *bucketSums) take(packed bool) (sb, sa, mc int64) {
	if packed {
		sb, sa = int64(uint32(s.sum)), int64(s.sum>>32)
		s.sum = 0
	} else {
		sb, sa = int64(s.sum), int64(s.after)
		s.sum, s.after = 0, 0
	}
	return sb, sa, int64(s.size)
}

func newSearchState(p *kendall.Pairs, seed *rankings.Ranking) *searchState {
	st := &searchState{
		p:        p,
		bucketOf: make([]int32, p.N),
		lastSeen: make([]int64, p.N),
		packed:   packedLanes(p.Width(), p.N),
	}
	st.reset(seed)
	return st
}

// packedLanes reports whether a scan over n elements with counts of the
// given bit width can pack a column's before and after counts into one
// uint64, after in the high 32 bits. int8 and int16 counts are at most
// MaxInt16Rankings < 2¹⁵, so while n < 2¹⁷ no bucket sum reaches 2³² and
// the low lane never carries into the high one. int32 counts keep two
// lanes.
func packedLanes(width, n int) bool {
	return width < 32 && n < 1<<17
}

// reset loads seed into the state as a fresh descent would find it —
// bucket i of the seed is bucket id i, nothing seen — reusing every buffer
// an earlier descent grew.
func (st *searchState) reset(seed *rankings.Ranking) {
	nb := len(seed.Buckets)
	st.elems = st.elems[:0]
	st.store = slices.Grow(st.store[:0], nb)[:nb]
	st.order = slices.Grow(st.order[:0], nb)[:nb]
	st.idxOf = slices.Grow(st.idxOf[:0], nb)[:nb]
	st.free = st.free[:0]
	for i, b := range seed.Buckets {
		st.elems = append(st.elems, b...)
		st.store[i] = append(st.store[i][:0], b...)
		st.order[i] = int32(i)
		st.idxOf[i] = int32(i)
		for _, e := range b {
			st.bucketOf[e] = int32(i)
		}
	}
	st.full = len(st.elems) == st.p.N
	st.version = 1
	clear(st.lastSeen)
	if st.scat != nil {
		st.sizeScat()
	}
}

// scanPlacement fills the per-bucket cost scratch for x (tieCost, befCost,
// aftCost and the preB/sufA prefix sums) and returns the index of x's
// current bucket, in O(n + k). The dataset is complete (core.CheckInput),
// so before + after + tied = M for every pair and two row loads per
// element suffice: with sb = Σ before[x,y] and sa = Σ after[x,y] over a
// bucket of c elements, tieCost = sb + sa, befCost = M·c − sb and
// aftCost = M·c − sa. The sums come from the same scatter and readout as
// the fold; x's own zero diagonal entry still counts a pair in the M·c
// collapse, fixed up once after the loop.
func (st *searchState) scanPlacement(x int) int {
	k := len(st.order)
	st.ensureScratch(k)
	cur := st.curIndex(x)
	st.scatterRow(x)
	m := int64(st.p.M)
	scat, packed := st.scat, st.packed
	for j, id := range st.order {
		sb, sa, mc := scat[id].take(packed)
		st.tieCost[j], st.befCost[j], st.aftCost[j] = sb+sa, mc-sb, mc-sa
	}
	st.befCost[cur] -= m
	st.aftCost[cur] -= m
	// preB[q] = cost of x being after buckets 0..q-1; sufA[q] = cost of x
	// being before buckets q..k-1.
	st.preB[0] = 0
	for j := 0; j < k; j++ {
		st.preB[j+1] = st.preB[j] + st.aftCost[j]
	}
	st.sufA[k] = 0
	for j := k - 1; j >= 0; j-- {
		st.sufA[j] = st.sufA[j+1] + st.befCost[j]
	}
	return cur
}

// improveElement evaluates every placement of x (into each existing bucket,
// or as a new singleton bucket at each boundary) in O(n + k), and applies
// the best strictly-improving move. Returns the (negative) score delta of
// the applied move, or 0 when x stays put.
//
// On complete datasets the evaluation runs fused in a single forward pass:
// with sb_j = Σ_{y∈Bj} before[x,y], sa_j = Σ_{y∈Bj} after[x,y] and the
// running prefix D_j = Σ_{j'<j} (sb_j' − sa_j'), every placement cost equals
// a shared constant (which cancels in deltas) plus
//
//	new bucket at boundary q:  D_q
//	tie into bucket j:         D_j + 2·sb_j + sa_j − M·|Bj|
//
// so no prefix-sum scratch arrays or backward passes are needed. An
// element found move-free skips its scan until some move lands (lastSeen).
func (st *searchState) improveElement(x int) int64 {
	if st.lastSeen[x] == st.version {
		return 0 // state untouched since x was last found move-free
	}
	bestDelta, cur, bestTie, bestNew := st.bestMoveComplete(x)
	if bestTie < 0 && bestNew < 0 {
		st.lastSeen[x] = st.version
		return 0
	}
	st.apply(x, cur, bestTie, bestNew)
	// x now sits at the cheapest placement the pre-move state offered and
	// only x's own position changed, so x itself is move-free too.
	st.lastSeen[x] = st.version
	return bestDelta
}

// bestMoveComplete returns x's best strictly-improving move: the lowest
// candidate value wins, existing buckets in order first, then boundaries
// in order — matching the historical two-loop scan. It scatters x's row
// pair into per-bucket sums, then folds the sums in one walk of the bucket
// order.
func (st *searchState) bestMoveComplete(x int) (bestDelta int64, cur, bestTie, bestNew int) {
	st.scatterRow(x)
	return st.foldPlacements(x)
}

// scatterRow adds x's before/after matrix rows into the per-bucket sums,
// dispatching once on the matrix's storage width (Rows8/16/32) to a
// monomorphized scatter. It never needs a tied row, which is exactly why
// the derived-tied backend can drop that plane without slowing the scan
// down.
func (st *searchState) scatterRow(x int) {
	switch st.p.Width() {
	case 32:
		bx, ax, _ := st.p.Rows32(x)
		scatterSums(st, bx, ax)
	case 16:
		bx, ax, _ := st.p.Rows16(x)
		scatterSums(st, bx, ax)
	default:
		bx, ax, _ := st.p.Rows8(x)
		scatterSums(st, bx, ax)
	}
}

// foldPlacements is the hot path of the scan engine. It folds the
// scattered per-bucket sums of x's row into x's best move in one walk of
// the bucket order, keeping a running (value, first index) minimum per
// candidate class: tie into bucket j, and new bucket at boundary q. The
// walk is split around x's own bucket, whose tie value is the current
// placement rather than a candidate, so its exclusion costs no test per
// bucket. (When x is alone in its bucket, the two boundaries around it
// re-create the identical ranking: their value equals the current one, so
// they never win a strictly improving move.) Each sum is re-zeroed as it
// is read, while its line is hot (see scatterSums).
//
// The best candidate is the lower of the two minima, the tie on equal
// values, so the selection keeps the historical order: lowest value, tie
// buckets before boundaries, lowest index first. A move is taken only when
// that value is below the current placement's.
func (st *searchState) foldPlacements(x int) (bestDelta int64, cur, bestTie, bestNew int) {
	m := int64(st.p.M)
	cur = st.curIndex(x)
	scat, packed := st.scat, st.packed
	tieMin, newMin := int64(math.MaxInt64), int64(math.MaxInt64)
	tieAt, newAt := -1, -1
	var d int64 // D_j: running Σ (sb − sa)
	for j, id := range st.order[:cur] {
		sb, sa, mc := scat[id].take(packed)
		if d < newMin {
			newMin, newAt = d, j
		}
		if v := d + 2*sb + sa - mc; v < tieMin {
			tieMin, tieAt = v, j
		}
		d += sb - sa
	}
	sb, sa, mc := scat[st.order[cur]].take(packed)
	if d < newMin {
		newMin, newAt = d, cur
	}
	curVal := d + 2*sb + sa - mc + m // x's own zero diagonal contributes no pair
	d += sb - sa
	if d < newMin {
		newMin, newAt = d, cur+1
	}
	for j, id := range st.order[cur+1:] {
		sb, sa, mc := scat[id].take(packed)
		if v := d + 2*sb + sa - mc; v < tieMin {
			tieMin, tieAt = v, cur+1+j
		}
		d += sb - sa
		if d < newMin {
			newMin, newAt = d, cur+2+j
		}
	}
	switch delta := min(tieMin, newMin) - curVal; {
	case delta >= 0:
		return 0, cur, -1, -1
	case tieMin <= newMin:
		return delta, cur, tieAt, -1
	default:
		return delta, cur, -1, newAt
	}
}

// scatterSums adds x's before/after row into the per-bucket-id sums in one
// pass with no data-dependent branch: a full seed streams the row linearly
// and scatters by bucketOf; a partial seed (ExactBnB's groups) walks its
// own elements, so absent elements never reach the sums. The sums are kept
// all-zero between scans: each readout re-zeroes the entries it consumes
// while their cache lines are hot, so the scatter itself never runs a
// clearing loop (a bucket that dies in apply was zeroed by the scan that
// selected the move, and a dead id is never scattered into — no seed
// element's bucketOf points at it — so recycled ids come back clean).
func scatterSums[T kendall.Count](st *searchState, bx, ax []T) {
	if len(st.scat) < len(st.store) {
		st.sizeScat()
	}
	scat := st.scat
	if !st.full {
		for _, y := range st.elems {
			scat[st.bucketOf[y]].add(uint64(bx[y]), uint64(ax[y]), st.packed)
		}
		return
	}
	bkt := st.bucketOf[:len(bx)]
	ax = ax[:len(bx)]
	if st.packed {
		for y, bv := range bx {
			scat[bkt[y]].add(uint64(bv), uint64(ax[y]), true)
		}
	} else {
		for y, bv := range bx {
			scat[bkt[y]].add(uint64(bv), uint64(ax[y]), false)
		}
	}
}

// sizeScat (re)builds the scatter scratch for the live store: all sums
// zero, which is exactly the between-scans invariant, and the M·|bucket|
// size fields recomputed. It reallocates, at double the bucket-store size,
// only when the store outgrew it (singleton moves mint ids one at a time;
// doubling keeps the churn amortized).
func (st *searchState) sizeScat() {
	if need := len(st.store); cap(st.scat) < need {
		st.scat = make([]bucketSums, 2*need)
	} else {
		st.scat = st.scat[:cap(st.scat)]
		clear(st.scat)
	}
	m := uint64(st.p.M)
	for _, id := range st.order {
		st.scat[id].size = m * uint64(len(st.store[id]))
	}
}

// apply moves x out of bucket index cur into existing bucket tie (if
// tie >= 0) or into a new singleton bucket before boundary newPos (if
// newPos >= 0). Indices refer to the bucket order BEFORE x is removed.
// Thanks to the stable bucket ids only x's own bucketOf entry changes, and
// recycling dead ids — and, past the live store, the member slices an
// earlier descent left in its backing array — keeps moves allocation-free.
// When the scatter scratch is live (scat non-nil) its M·|bucket| size
// fields track the membership changes; a bucket emptied here ends with a
// zero size field and zero sums, so its recycled id re-enters the scratch
// clean.
func (st *searchState) apply(x, cur, tie, newPos int) {
	st.version++
	m := uint64(st.p.M)
	id := st.order[cur]
	b := st.store[id]
	for i, e := range b {
		if e == x {
			b[i] = b[len(b)-1]
			b = b[:len(b)-1]
			st.store[id] = b
			break
		}
	}
	if st.scat != nil {
		st.scat[id].size -= m
	}
	if len(b) == 0 {
		st.free = append(st.free, id)
		st.order = append(st.order[:cur], st.order[cur+1:]...)
		for _, oid := range st.order[cur:] {
			st.idxOf[oid]--
		}
		if tie > cur {
			tie--
		}
		if newPos > cur {
			newPos--
		}
	}
	if tie >= 0 {
		did := st.order[tie]
		st.store[did] = append(st.store[did], x)
		st.bucketOf[x] = did
		if st.scat != nil {
			st.scat[did].size += m
		}
	} else {
		var nid int32
		if nf := len(st.free); nf > 0 {
			nid = st.free[nf-1]
			st.free = st.free[:nf-1]
		} else {
			nid = int32(len(st.store))
			if len(st.store) < cap(st.store) {
				st.store = st.store[:nid+1]
			} else {
				st.store = append(st.store, nil)
			}
		}
		st.store[nid] = append(st.store[nid][:0], x)
		st.order = append(st.order, 0)
		copy(st.order[newPos+1:], st.order[newPos:])
		st.order[newPos] = nid
		for _, oid := range st.order[newPos+1:] {
			st.idxOf[oid]++
		}
		if int(nid) >= len(st.idxOf) {
			st.idxOf = append(st.idxOf, 0)
		}
		st.idxOf[nid] = int32(newPos)
		st.bucketOf[x] = nid
		if st.scat != nil {
			if len(st.scat) <= int(nid) {
				st.sizeScat() // rebuilds every size field, the new bucket's included
			} else {
				st.scat[nid].size = m
			}
		}
	}
}

// curIndex returns the position of x's bucket in the current bucket order,
// in O(1) from the incrementally maintained idxOf (apply shifts only the
// entries its memmoves already touch, so maintenance rides the existing
// O(shift) cost instead of adding an O(k) walk per lookup).
func (st *searchState) curIndex(x int) int {
	return int(st.idxOf[st.bucketOf[x]])
}

func (st *searchState) ensureScratch(k int) {
	if cap(st.tieCost) < k {
		// Doubled: k grows one bucket per singleton move, and reallocating
		// five O(k) arrays on every high-water increment is pure memclr churn.
		c := 2 * k
		st.tieCost = make([]int64, c)
		st.befCost = make([]int64, c)
		st.aftCost = make([]int64, c)
		st.preB = make([]int64, c+1)
		st.sufA = make([]int64, c+1)
	}
	st.tieCost = st.tieCost[:k]
	st.befCost = st.befCost[:k]
	st.aftCost = st.aftCost[:k]
	st.preB = st.preB[:k+1]
	st.sufA = st.sufA[:k+1]
}

func (st *searchState) ranking() *rankings.Ranking {
	out := &rankings.Ranking{Buckets: make([][]int, len(st.order))}
	for i, id := range st.order {
		out.Buckets[i] = append([]int(nil), st.store[id]...)
	}
	return out
}

// flatten appends the state's members in consensus order to flat and
// each bucket's end offset in flat to ends.
func (st *searchState) flatten(flat, ends []int) ([]int, []int) {
	for _, id := range st.order {
		flat = append(flat, st.store[id]...)
		ends = append(ends, len(flat))
	}
	return flat, ends
}

func init() {
	core.Register("BioConsert", func() core.Aggregator { return &BioConsert{} })
}
