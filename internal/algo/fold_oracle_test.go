package algo

import (
	"math"
	"testing"

	"rankagg/internal/kendall"
)

// This file keeps the placement fold as the scan engine ran it before the
// one-pass fold: bestMoveScatter with its pickBestFold for full seeds,
// bestMoveCompleteRows with its pickBest for partial seeds, and the
// interleaved-triple scatter scratch they share (scatterRow, growScat,
// ensureCand). The bodies are kept verbatim; only their state parameter
// is an oracleState, so they run on a live searchState. The fold-lockstep
// test checks the current fold against them at every scan.

// oracleState runs the old fold on a live searchState: it reads the
// state's bucket order, store and pair matrix, borrows its tieCost/preB
// scratch for the candidate arrays, and keeps its own triple scratch (scat
// shadows the state's bucketSums). The state's apply maintains only its
// own scratch, so refresh re-derives the triples' size fields before
// every oracle scan.
type oracleState struct {
	*searchState
	scat []int64
}

// refresh rebuilds the size fields of every live bucket from the store.
// Dead ids keep stale size fields, which no fold reads.
func (st *oracleState) refresh() {
	if len(st.scat) < 3*len(st.store) {
		st.growScat()
		return
	}
	m := int64(st.p.M)
	for _, id := range st.order {
		st.scat[3*int(id)+2] = m * int64(len(st.store[id]))
	}
}

// bestMove is the old bestMoveComplete's dispatch: width first, then the
// scatter for full seeds and the bucket gather for partial ones.
func (st *oracleState) bestMove(x int) foldResult {
	st.refresh()
	switch st.p.Width() {
	case 32:
		bx, ax, _ := st.p.Rows32(x)
		return oracleRows(st, x, bx, ax)
	case 16:
		bx, ax, _ := st.p.Rows16(x)
		return oracleRows(st, x, bx, ax)
	default:
		bx, ax, _ := st.p.Rows8(x)
		return oracleRows(st, x, bx, ax)
	}
}

func oracleRows[T kendall.Count](st *oracleState, x int, bx, ax []T) foldResult {
	var r foldResult
	if st.full {
		r.delta, r.cur, r.tie, r.new, _ = bestMoveScatter(st, x, bx, ax)
	} else {
		r.delta, r.cur, r.tie, r.new, _ = bestMoveCompleteRows(st, x, bx, ax)
	}
	return r
}

// foldResult is one placement scan's outcome: the move's delta, x's bucket
// index, and the tie target or the new-bucket boundary. The old fold's
// margin fed a pruning rule that no longer exists, so it is not compared.
type foldResult struct {
	delta         int64
	cur, tie, new int
}

// foldLockstep descends st to a local optimum through improveElement, and
// before every element visit checks the current fold against the old one
// on the same state. A visit that improveElement skips is checked too,
// which only adds scans: the fold reads the state and re-zeroes its own
// scratch, so an extra scan changes nothing. It returns the number of
// scans checked and the number of moves applied.
func foldLockstep(t *testing.T, st *searchState, label string) (scans, moves int) {
	t.Helper()
	o := &oracleState{searchState: st}
	for improved := true; improved; {
		improved = false
		for _, x := range st.elems {
			want := o.bestMove(x)
			var got foldResult
			got.delta, got.cur, got.tie, got.new = st.bestMoveComplete(x)
			if got != want {
				t.Fatalf("%s: element %d at version %d (%d buckets): fold %+v, old fold %+v", label, x, st.version, len(st.order), got, want)
			}
			scans++
			if st.improveElement(x) < 0 {
				improved = true
				moves++
			}
		}
	}
	return scans, moves
}

// bestMoveScatter is the hot path of the scan engine: one branch-free
// linear pass over x's row pair (on the tiled backend bx and ax are the two
// halves of one contiguous 2n-count tile, so the pass streams exactly one
// tile) scatters the counts into per-bucket-id accumulators, then an O(k)
// walk of the bucket order folds them into candidate values. No per-bucket
// branch runs against the O(n) data: x's bucket index is resolved up front
// and its M·c overcount is fixed with a single add after the fold.
func bestMoveScatter[T kendall.Count](st *oracleState, x int, bx, ax []T) (bestDelta int64, cur, bestTie, bestNew int, margin int64) {
	m := int64(st.p.M)
	cur = st.curIndex(x)
	k := len(st.order)
	tieVal, newVal := st.ensureCand(k)
	scatterRow(st, bx, ax)
	scat := st.scat
	var d int64 // D_j: running Σ (sb − sa)
	for j, id := range st.order {
		i3 := 3 * int(id)
		sb, sa := scat[i3], scat[i3+1]
		scat[i3], scat[i3+1] = 0, 0 // re-zero while the line is hot (see scatterRow)
		newVal[j] = d
		tieVal[j] = d + 2*sb + sa - scat[i3+2] // scat[i3+2] = M·|bucket|
		d += sb - sa
	}
	newVal[k] = d
	tieVal[cur] += m // x's own zero diagonal contributes no pair
	bestDelta, bestTie, bestNew, margin = pickBestFold(tieVal, newVal, cur, scat[3*int(st.order[cur])+2] == m)
	return bestDelta, cur, bestTie, bestNew, margin
}

// pickBestFold is pickBest restructured for the scatter path: instead of one
// branchy walk tracking value, index and margin together, it folds a plain
// minimum over the candidate arrays in four tight branch-predictable loops
// (split around the excluded entries — x's own tie value, and the two no-op
// boundaries when x is a singleton — so the loops carry no per-iteration
// exclusion test), then rescans for the winning index only when that minimum
// actually improves on the current placement. The rescan revisits candidates
// in the historical tie-break order (existing buckets first, then
// boundaries, first hit wins), so the selected move is identical to
// pickBest's; the scan-engine property tests pin the two against each other
// through the scatter/gather equivalence.
func pickBestFold(tieVal, newVal []int64, cur int, singleton bool) (bestDelta int64, bestTie, bestNew int, margin int64) {
	minVal := int64(math.MaxInt64)
	for _, v := range tieVal[:cur] {
		if v < minVal {
			minVal = v
		}
	}
	for _, v := range tieVal[cur+1:] {
		if v < minVal {
			minVal = v
		}
	}
	if singleton {
		for _, v := range newVal[:cur] {
			if v < minVal {
				minVal = v
			}
		}
		for _, v := range newVal[cur+2:] {
			if v < minVal {
				minVal = v
			}
		}
	} else {
		for _, v := range newVal {
			if v < minVal {
				minVal = v
			}
		}
	}
	margin = minVal - tieVal[cur]
	if margin >= 0 {
		return 0, -1, -1, margin
	}
	for j := range tieVal {
		if j != cur && tieVal[j] == minVal {
			return margin, j, -1, 0
		}
	}
	for q := range newVal {
		if singleton && (q == cur || q == cur+1) {
			continue
		}
		if newVal[q] == minVal {
			return margin, -1, q, 0
		}
	}
	return margin, -1, -1, 0 // unreachable: the fold's minimum exists in the arrays
}

// bestMoveCompleteRows is the bucket-gather fallback for seeds covering a
// subset of the universe (ExactBnB group restrictions): only seed elements
// are walked, so absent elements never pollute the accumulators.
func bestMoveCompleteRows[T kendall.Count](st *oracleState, x int, bx, ax []T) (bestDelta int64, cur, bestTie, bestNew int, margin int64) {
	m := int64(st.p.M)
	cur = st.curIndex(x)
	k := len(st.order)
	tieVal, newVal := st.ensureCand(k)
	var d int64 // D_j: running Σ (sb − sa)
	for j, id := range st.order {
		var sb, sa int64
		b := st.store[id]
		for _, y := range b {
			sb += int64(bx[y])
			sa += int64(ax[y])
		}
		newVal[j] = d
		tieVal[j] = d + 2*sb + sa - m*int64(len(b))
		d += sb - sa
	}
	newVal[k] = d
	tieVal[cur] += m // x's own zero diagonal contributes no pair
	bestDelta, bestTie, bestNew, margin = pickBest(tieVal, newVal, cur, len(st.store[st.order[cur]]) == 1)
	return bestDelta, cur, bestTie, bestNew, margin
}

// pickBest selects the best strictly-improving candidate with the
// historical tie-breaking (lowest value wins, existing buckets in order
// first, then boundaries in order) and tracks the margin — the minimum
// candidate delta — for gap pruning. When x sits alone in its bucket the
// two boundaries around it re-create the identical ranking; those no-op
// candidates are excluded so a lone element can still build a margin (their
// delta is exactly 0, so the move selection is unchanged).
func pickBest(tieVal, newVal []int64, cur int, singleton bool) (bestDelta int64, bestTie, bestNew int, margin int64) {
	k := len(tieVal)
	curVal := tieVal[cur]
	bestTie, bestNew = -1, -1
	margin = math.MaxInt64
	for j := 0; j < k; j++ {
		if j == cur {
			continue
		}
		dd := tieVal[j] - curVal
		if dd < bestDelta {
			bestDelta, bestTie, bestNew = dd, j, -1
		}
		if dd < margin {
			margin = dd
		}
	}
	for q := 0; q <= k; q++ {
		if singleton && (q == cur || q == cur+1) {
			continue
		}
		dd := newVal[q] - curVal
		if dd < bestDelta {
			bestDelta, bestTie, bestNew = dd, -1, q
		}
		if dd < margin {
			margin = dd
		}
	}
	if margin < 0 {
		margin = 0 // a move will be applied; the margin is unused
	}
	return bestDelta, bestTie, bestNew, margin
}

// scatterRow accumulates x's before/after row into the per-bucket-id
// scratch in one linear, branch-free pass: every column's counts are
// widened to int64 once and scattered by bucketOf. Valid only for full
// seeds — bucketOf must be meaningful for every column. The sum fields are
// kept all-zero between scans: each readout re-zeroes the entries it
// consumes while their cache lines are hot, so the scatter pass itself
// never runs a clearing loop (a bucket that dies in apply was zeroed by
// the scan that selected the move, and a dead id is never scattered into —
// no bucketOf entry points at it — so recycled ids come back clean).
func scatterRow[T kendall.Count](st *oracleState, bx, ax []T) {
	if len(st.scat) < 3*len(st.store) {
		st.growScat()
	}
	scat := st.scat
	bkt := st.bucketOf[:len(bx)]
	ax = ax[:len(bx)]
	for y, bv := range bx {
		i3 := 3 * int(bkt[y])
		scat[i3] += int64(bv)
		scat[i3+1] += int64(ax[y])
	}
}

// growScat (re)allocates the scatter scratch at double the bucket-store
// size (singleton moves mint ids one at a time; doubling keeps the churn
// amortized) and rebuilds the M·|bucket| size fields from the live store.
// The sum fields start zero, which is exactly the between-scans invariant.
func (st *oracleState) growScat() {
	st.scat = make([]int64, 6*len(st.store))
	m := int64(st.p.M)
	for _, id := range st.order {
		st.scat[3*int(id)+2] = m * int64(len(st.store[id]))
	}
}

// ensureCand returns the k tie-candidate and k+1 boundary-candidate scratch
// slices, growing the shared scratch only when needed (the fused scan needs
// just these two, so the other three arrays are left untouched).
func (st *oracleState) ensureCand(k int) (tieVal, newVal []int64) {
	if cap(st.tieCost) < k {
		st.ensureScratch(k)
	}
	return st.tieCost[:k], st.preB[:k+1]
}
