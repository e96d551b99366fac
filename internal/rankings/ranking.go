// Package rankings defines the core data model of the library: rankings with
// ties (bucket orders) and datasets of such rankings, following Section 2 of
// Brancotte et al., "Rank aggregation with ties: Experiments and Analysis",
// PVLDB 8(11), 2015.
//
// A ranking with ties over a universe of n elements is an ordered sequence of
// disjoint, non-empty buckets B1, ..., Bk. Elements in the same bucket are
// tied; an element of Bi is ranked strictly before every element of Bj for
// i < j. A permutation is the special case where every bucket has size one.
//
// Elements are dense integer IDs in [0, n). The Universe type maps external
// string names to IDs at the boundary.
package rankings

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Ranking is a ranking with ties (bucket order). The zero value is an empty
// ranking. Buckets must be disjoint and non-empty; Validate checks this.
type Ranking struct {
	// Buckets lists the tie groups from best (first) to worst (last).
	Buckets [][]int
}

// New returns a ranking made of the given buckets. The buckets are used
// directly (not copied).
func New(buckets ...[]int) *Ranking {
	return &Ranking{Buckets: buckets}
}

// FromPermutation returns a ranking where each element of perm occupies its
// own bucket, in order.
func FromPermutation(perm []int) *Ranking {
	b := make([][]int, len(perm))
	for i, e := range perm {
		b[i] = []int{e}
	}
	return &Ranking{Buckets: b}
}

// FromPositions builds a ranking from a position slice: pos[e] is the 1-based
// bucket index of element e, and 0 means e is absent. Bucket indices need not
// be contiguous; buckets are formed by ascending position.
func FromPositions(pos []int) *Ranking {
	byPos := make(map[int][]int)
	keys := make([]int, 0, 8)
	for e, p := range pos {
		if p == 0 {
			continue
		}
		if _, ok := byPos[p]; !ok {
			keys = append(keys, p)
		}
		byPos[p] = append(byPos[p], e)
	}
	sort.Ints(keys)
	b := make([][]int, 0, len(keys))
	for _, p := range keys {
		b = append(b, byPos[p])
	}
	return &Ranking{Buckets: b}
}

// Clone returns a deep copy of r.
func (r *Ranking) Clone() *Ranking {
	b := make([][]int, len(r.Buckets))
	for i, bk := range r.Buckets {
		b[i] = append([]int(nil), bk...)
	}
	return &Ranking{Buckets: b}
}

// Len returns the number of elements in the ranking.
func (r *Ranking) Len() int {
	n := 0
	for _, b := range r.Buckets {
		n += len(b)
	}
	return n
}

// NumBuckets returns the number of buckets.
func (r *Ranking) NumBuckets() int { return len(r.Buckets) }

// IsPermutation reports whether every bucket has exactly one element.
func (r *Ranking) IsPermutation() bool {
	for _, b := range r.Buckets {
		if len(b) != 1 {
			return false
		}
	}
	return true
}

// Elements returns all element IDs present in the ranking, in ranking order
// (bucket by bucket).
func (r *Ranking) Elements() []int {
	out := make([]int, 0, r.Len())
	for _, b := range r.Buckets {
		out = append(out, b...)
	}
	return out
}

// Contains reports whether element e appears in the ranking.
func (r *Ranking) Contains(e int) bool {
	for _, b := range r.Buckets {
		for _, x := range b {
			if x == e {
				return true
			}
		}
	}
	return false
}

// Positions returns the 1-based bucket index of each element ID in [0, n),
// with 0 for elements absent from the ranking. This is the r[x] notation of
// the paper. n must be at least 1 + the maximum element ID in r.
func (r *Ranking) Positions(n int) []int {
	pos := make([]int, n)
	for i, b := range r.Buckets {
		for _, e := range b {
			pos[e] = i + 1
		}
	}
	return pos
}

// MaxElement returns the largest element ID in the ranking, or -1 if empty.
func (r *Ranking) MaxElement() int {
	maxE := -1
	for _, b := range r.Buckets {
		for _, e := range b {
			if e > maxE {
				maxE = e
			}
		}
	}
	return maxE
}

// Validate checks structural invariants: non-empty buckets, no negative IDs,
// and no element appearing twice. It runs in O(L) for a ranking of L
// elements and allocates O(L) bytes whatever its largest ID: a ranking of
// two elements may name element 1<<62.
func (r *Ranking) Validate() error {
	_, err := validate(r.Buckets)
	return err
}

// validate is Validate on a bucket list; it also returns the largest
// element (-1 for an empty ranking), which it finds on the way.
func validate(buckets [][]int) (maxE int, err error) {
	n := 0
	maxE = -1
	for i, b := range buckets {
		if len(b) == 0 {
			return -1, fmt.Errorf("rankings: bucket %d is empty", i)
		}
		for _, e := range b {
			if e < 0 {
				return -1, fmt.Errorf("rankings: negative element ID %d in bucket %d", e, i)
			}
			maxE = max(maxE, e)
		}
		n += len(b)
	}
	return maxE, checkDistinct(buckets, n, maxE)
}

// bitmapFactor bounds checkDistinct's bitmap: it is used while the largest
// ID is below bitmapFactor times the element count, so it never takes more
// than one word per element.
const bitmapFactor = 64

// checkDistinct reports an element that appears twice in buckets, which
// hold n non-negative IDs of at most maxE. Dense IDs are marked in a
// bitmap, in ranking order; sparse ones are found as equal neighbours in a
// sorted copy. Either way it allocates at most n words.
func checkDistinct(buckets [][]int, n, maxE int) error {
	if n < 2 {
		return nil
	}
	if maxE/bitmapFactor < n {
		seen := make([]uint64, maxE/64+1)
		for _, b := range buckets {
			for _, e := range b {
				w, bit := e/64, uint64(1)<<(e%64)
				if seen[w]&bit != 0 {
					return duplicateError(e)
				}
				seen[w] |= bit
			}
		}
		return nil
	}
	sorted := make([]int, 0, n)
	for _, b := range buckets {
		sorted = append(sorted, b...)
	}
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return duplicateError(sorted[i])
		}
	}
	return nil
}

func duplicateError(e int) error {
	return fmt.Errorf("rankings: element %d appears more than once", e)
}

// Canonicalize sorts the contents of each bucket in ascending element order.
// Bucket order is unchanged. It returns r for chaining.
func (r *Ranking) Canonicalize() *Ranking {
	for _, b := range r.Buckets {
		sort.Ints(b)
	}
	return r
}

// Equal reports whether r and s are the same bucket order (ignoring the
// internal ordering of elements within buckets).
func (r *Ranking) Equal(s *Ranking) bool {
	if len(r.Buckets) != len(s.Buckets) {
		return false
	}
	for i := range r.Buckets {
		if len(r.Buckets[i]) != len(s.Buckets[i]) {
			return false
		}
		in := make(map[int]bool, len(r.Buckets[i]))
		for _, e := range r.Buckets[i] {
			in[e] = true
		}
		for _, e := range s.Buckets[i] {
			if !in[e] {
				return false
			}
		}
	}
	return true
}

// String renders the ranking in the paper's notation, e.g. [{A},{B,C}] with
// numeric IDs: [{0},{1,2}]. Bucket contents are rendered in ascending order.
func (r *Ranking) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, b := range r.Buckets {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('{')
		sorted := append([]int(nil), b...)
		sort.Ints(sorted)
		for j, e := range sorted {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", e)
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(']')
	return sb.String()
}
