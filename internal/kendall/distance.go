// Package kendall implements the dissimilarity measures of the paper:
// the classical Kendall-τ distance D between permutations, the generalized
// Kendall-τ distance G between rankings with ties (Section 2.2, unit costs),
// Kemeny scores, the Kendall-τ rank correlation coefficient extended to ties
// (Section 6.2.2, eq. 4), dataset similarity (eq. 5), and the pairwise
// disagreement-count matrices every aggregation algorithm is built on.
//
// Two implementations of G are provided: a naive O(n²) reference and a
// log-linear merge-sort based one ("Computing the distance is equivalent to
// sorting the elements and can be done, with adaptations, in log-linear
// time"). Property tests and a fuzz target check that they agree.
//
// The log-linear kernel only looks at the elements the two rankings share,
// so it is sparse: Score builds the consensus positions once — one O(n)
// pass per call — and then pays O(L log L) per input ranking of L
// elements, reusing one scratch so that a ranking allocates nothing once
// the scratch has grown. A Kemeny score over top-k lists therefore costs
// O(n + Σ L log L), not O(m·n log n).
package kendall

import (
	"cmp"
	"slices"

	"rankagg/internal/rankings"
)

// Dist returns the generalized Kendall-τ distance G(r, s) between two
// rankings over a universe of n elements, using the log-linear algorithm.
// A pair of elements costs one when it is inverted between the rankings or
// tied in exactly one of them (unit untying cost, as in the paper). Pairs
// where either element is absent from either ranking contribute nothing.
//
// Dist indexes the longer ranking by position and walks the shorter one,
// so a top-k list against a full consensus costs O(n) for the index plus
// O(L log L) for the distance.
func Dist(r, s *rankings.Ranking, n int) int64 {
	if r.Len() < s.Len() {
		r, s = s, r
	}
	var sc scratch
	return sc.score(r.Positions(n), s)
}

// DistNaive is the O(n²) reference implementation of G.
func DistNaive(r, s *rankings.Ranking, n int) int64 {
	return distPositionsNaive(r.Positions(n), s.Positions(n))
}

// DistPositions computes G from position slices (1-based bucket index per
// element, 0 = absent) in O(c log c) time where c is the number of elements
// common to both rankings. Index i of both slices describes the same
// element, so callers may pass every element of the universe or only the
// elements one ranking holds: elements absent from either ranking do not
// count.
func DistPositions(pr, ps []int) int64 {
	var sc scratch
	sc.pairs = make([]pair, 0, len(pr))
	for e, p := range pr {
		if p != 0 && ps[e] != 0 {
			sc.pairs = append(sc.pairs, pair{p, ps[e]})
		}
	}
	return sc.dist()
}

// pair holds one element's 1-based bucket indices in the two rankings a
// distance compares.
type pair struct{ a, b int }

// scratch is the distance kernel's working memory. Score keeps one across
// all the rankings of a dataset, so only the first few rankings grow it.
type scratch struct {
	pairs []pair
	bs    []int // the b values in (a, b) order; the inversion count sorts them
	buf   []int // merge buffer
}

// score returns G between the ranking whose positions are pc and s, in
// O(L log L) for the L elements of s: only the elements s holds can form a
// pair that counts.
func (sc *scratch) score(pc []int, s *rankings.Ranking) int64 {
	sc.pairs = slices.Grow(sc.pairs[:0], s.Len())
	for i, b := range s.Buckets {
		for _, e := range b {
			if p := pc[e]; p != 0 {
				sc.pairs = append(sc.pairs, pair{i + 1, p})
			}
		}
	}
	return sc.dist()
}

// dist returns G over sc.pairs, one entry per element present in both
// rankings. Sorted by (a, b), the strictly discordant pairs are exactly
// the strict inversions of the b sequence; the untying costs come from the
// runs of equal a, of equal b, and of equal (a, b). score emits pairs in
// a order, and the pattern-defeating sort finishes already-sorted input —
// every top-k list — in one linear pass.
func (sc *scratch) dist() int64 {
	ps := sc.pairs
	slices.SortFunc(ps, func(x, y pair) int {
		if x.a != y.a {
			return cmp.Compare(x.a, y.a)
		}
		return cmp.Compare(x.b, y.b)
	})
	var tiesA, tiesB, tiesBoth int64
	bs := slices.Grow(sc.bs[:0], len(ps))
	for i := 0; i < len(ps); {
		j := i
		for j < len(ps) && ps[j].a == ps[i].a {
			j++
		}
		tiesA += choose2(j - i)
		for x := i; x < j; {
			y := x
			for y < j && ps[y].b == ps[x].b {
				y++
			}
			tiesBoth += choose2(y - x)
			x = y
		}
		i = j
	}
	for _, p := range ps {
		bs = append(bs, p.b)
	}
	if cap(sc.buf) < len(bs) {
		sc.buf = make([]int, cap(bs))
	}
	inv := mergeCount(bs, sc.buf[:len(bs)])
	// bs is sorted now: the pairs tied in b are its runs of equal values.
	for i := 0; i < len(bs); {
		j := i + 1
		for j < len(bs) && bs[j] == bs[i] {
			j++
		}
		tiesB += choose2(j - i)
		i = j
	}
	sc.bs = bs
	return inv + (tiesA - tiesBoth) + (tiesB - tiesBoth)
}

// choose2 is the number of pairs among k elements.
func choose2(k int) int64 { return int64(k) * int64(k-1) / 2 }

func distPositionsNaive(pr, ps []int) int64 {
	var g int64
	n := len(pr)
	for i := 0; i < n; i++ {
		if pr[i] == 0 || ps[i] == 0 {
			continue
		}
		for j := i + 1; j < n; j++ {
			if pr[j] == 0 || ps[j] == 0 {
				continue
			}
			ri, rj, si, sj := pr[i], pr[j], ps[i], ps[j]
			switch {
			case ri < rj && si > sj, ri > rj && si < sj:
				g++ // inverted
			case ri != rj && si == sj, ri == rj && si != sj:
				g++ // tied in exactly one
			}
		}
	}
	return g
}

// mergeCount counts pairs i < j with v[i] > v[j] (strict) by merge sort,
// in O(len log len), leaving v sorted. buf is scratch of v's length.
func mergeCount(v, buf []int) int64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	mid := n / 2
	inv := mergeCount(v[:mid], buf[:mid]) + mergeCount(v[mid:], buf[mid:])
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if v[i] <= v[j] {
			buf[k] = v[i]
			i++
		} else {
			buf[k] = v[j]
			inv += int64(mid - i)
			j++
		}
		k++
	}
	copy(buf[k:], v[i:mid])
	copy(buf[k+mid-i:], v[j:])
	copy(v, buf[:n])
	return inv
}

// PermutationDist returns the classical Kendall-τ distance D(π, σ): the
// number of pairwise order disagreements between two permutations over the
// same elements. Ties, if present, are ignored (pairs tied in either ranking
// contribute nothing), matching the classical formulation discussed in
// Section 2.2.
func PermutationDist(r, s *rankings.Ranking, n int) int64 {
	pr, ps := r.Positions(n), s.Positions(n)
	var d int64
	for i := 0; i < n; i++ {
		if pr[i] == 0 || ps[i] == 0 {
			continue
		}
		for j := i + 1; j < n; j++ {
			if pr[j] == 0 || ps[j] == 0 {
				continue
			}
			if (pr[i] < pr[j] && ps[i] > ps[j]) || (pr[i] > pr[j] && ps[i] < ps[j]) {
				d++
			}
		}
	}
	return d
}

// Score returns the generalized Kemeny score K(r, R) = Σ_{s∈R} G(r, s).
// It builds r's positions once and then costs O(L log L) per ranking of
// L elements, with no allocation per ranking once its scratch has grown.
func Score(r *rankings.Ranking, d *rankings.Dataset) int64 {
	pr := r.Positions(d.N)
	var sc scratch
	var k int64
	for _, s := range d.Rankings {
		k += sc.score(pr, s)
	}
	return k
}

// Tau returns the Kendall-τ rank correlation coefficient extended to ties
// (eq. 4): τ = (P - 2G) / P with P = n(n-1)/2, where n is the number of
// elements common to both rankings. τ is 1 for identical rankings and -1 for
// reversed permutations. Returns 0 when fewer than two common elements exist.
func Tau(r, s *rankings.Ranking, n int) float64 {
	pr, ps := r.Positions(n), s.Positions(n)
	var c int64
	for e := range pr {
		if pr[e] != 0 && ps[e] != 0 {
			c++
		}
	}
	if c < 2 {
		return 0
	}
	p := float64(c*(c-1)) / 2
	g := float64(DistPositions(pr, ps))
	return (p - 2*g) / p
}

// Similarity returns the intrinsic correlation s(R) of a dataset (eq. 5):
// the average τ over all pairs of input rankings. Returns 0 for fewer than
// two rankings.
func Similarity(d *rankings.Dataset) float64 {
	m := len(d.Rankings)
	if m < 2 {
		return 0
	}
	pos := d.PositionMatrix()
	var sum float64
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			sum += tauPositions(pos[i], pos[j])
		}
	}
	return sum * 2 / float64(m*(m-1))
}

func tauPositions(pr, ps []int) float64 {
	var c int64
	for e := range pr {
		if pr[e] != 0 && ps[e] != 0 {
			c++
		}
	}
	if c < 2 {
		return 0
	}
	p := float64(c*(c-1)) / 2
	g := float64(DistPositions(pr, ps))
	return (p - 2*g) / p
}
