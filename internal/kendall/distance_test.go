package kendall

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rankagg/internal/rankings"
)

// mustDS parses rankings in compact notation into a dataset sharing a
// universe.
func mustDS(t *testing.T, specs ...string) (*rankings.Dataset, *rankings.Universe) {
	t.Helper()
	u := rankings.NewUniverse()
	var rks []*rankings.Ranking
	for _, s := range specs {
		rks = append(rks, rankings.MustParse(s, u))
	}
	return rankings.FromRankings(rks...), u
}

// TestPaperPermutationExample reproduces the Section 2.1 example:
// P = {[A,D,B,C],[A,C,B,D],[D,A,C,B]}, optimal consensus [A,D,C,B] with
// Kemeny score 4.
func TestPaperPermutationExample(t *testing.T) {
	d, u := mustDS(t, "A>D>B>C", "A>C>B>D", "D>A>C>B")
	star := rankings.MustParse("A>D>C>B", u)
	if got := Score(star, d); got != 4 {
		t.Errorf("S([A,D,C,B], P) = %d, want 4", got)
	}
}

// TestPaperTiesExample reproduces the Section 2.2 example:
// R = {[{A},{D},{B,C}], [{A},{B,C},{D}], [{D},{A,C},{B}]} with optimal
// consensus [{A},{D},{B,C}] and K = 5.
func TestPaperTiesExample(t *testing.T) {
	d, u := mustDS(t, "[{A},{D},{B,C}]", "[{A},{B,C},{D}]", "[{D},{A,C},{B}]")
	star := rankings.MustParse("[{A},{D},{B,C}]", u)
	if got := Score(star, d); got != 5 {
		t.Errorf("K(r*, R) = %d, want 5", got)
	}
}

func TestDistIdentityAndSymmetry(t *testing.T) {
	u := rankings.NewUniverse()
	r := rankings.MustParse("[{A},{B,C},{D}]", u)
	s := rankings.MustParse("[{D},{A,C},{B}]", u)
	if got := Dist(r, r, 4); got != 0 {
		t.Errorf("G(r,r) = %d, want 0", got)
	}
	if Dist(r, s, 4) != Dist(s, r, 4) {
		t.Error("G is not symmetric")
	}
}

func TestDistAllTiedVsPermutation(t *testing.T) {
	// One bucket of n elements vs a strict permutation: every pair is tied in
	// one and strict in the other, so G = n(n-1)/2.
	n := 6
	all := rankings.New([]int{0, 1, 2, 3, 4, 5})
	perm := rankings.FromPermutation([]int{0, 1, 2, 3, 4, 5})
	if got, want := Dist(all, perm, n), int64(n*(n-1)/2); got != want {
		t.Errorf("G = %d, want %d", got, want)
	}
}

func TestDistReversedPermutations(t *testing.T) {
	n := 7
	fwd := rankings.FromPermutation([]int{0, 1, 2, 3, 4, 5, 6})
	rev := rankings.FromPermutation([]int{6, 5, 4, 3, 2, 1, 0})
	if got, want := Dist(fwd, rev, n), int64(n*(n-1)/2); got != want {
		t.Errorf("G = %d, want %d", got, want)
	}
	if got := Tau(fwd, rev, n); math.Abs(got+1) > 1e-12 {
		t.Errorf("Tau = %v, want -1", got)
	}
	if got := Tau(fwd, fwd, n); math.Abs(got-1) > 1e-12 {
		t.Errorf("Tau = %v, want 1", got)
	}
}

func TestDistIgnoresMissingElements(t *testing.T) {
	u := rankings.NewUniverse()
	r := rankings.MustParse("A>B>C", u)
	s := rankings.MustParse("C>A", u) // B missing: only pair (A,C) is common
	if got := Dist(r, s, 3); got != 1 {
		t.Errorf("G = %d, want 1 (single common inverted pair)", got)
	}
}

func TestPermutationDistIgnoresTies(t *testing.T) {
	u := rankings.NewUniverse()
	r := rankings.MustParse("[{A,B},{C}]", u)
	s := rankings.MustParse("[{B},{A},{C}]", u)
	// Pair (A,B) is tied in r so the classical D ignores it.
	if got := PermutationDist(r, s, 3); got != 0 {
		t.Errorf("D = %d, want 0", got)
	}
	if got := Dist(r, s, 3); got != 1 {
		t.Errorf("G = %d, want 1 (untying cost)", got)
	}
}

func randomRanking(rng *rand.Rand, n int) *rankings.Ranking {
	perm := rng.Perm(n)
	r := &rankings.Ranking{}
	for i := 0; i < n; {
		sz := 1 + rng.Intn(4)
		if i+sz > n {
			sz = n - i
		}
		r.Buckets = append(r.Buckets, append([]int(nil), perm[i:i+sz]...))
		i += sz
	}
	return r
}

// randomPartialRanking drops each element with probability 1/4.
func randomPartialRanking(rng *rand.Rand, n int) *rankings.Ranking {
	full := randomRanking(rng, n)
	out := &rankings.Ranking{}
	for _, b := range full.Buckets {
		var nb []int
		for _, e := range b {
			if rng.Intn(4) != 0 {
				nb = append(nb, e)
			}
		}
		if len(nb) > 0 {
			out.Buckets = append(out.Buckets, nb)
		}
	}
	return out
}

// TestQuickFastMatchesNaive is the key property test: the log-linear G must
// agree with the O(n²) reference on random (possibly partial) rankings, and
// DistPositions must give the same G on compact lists — the positions of
// one ranking's own elements only — as on universe-sized ones. Score, which
// walks each ranking's own elements against the consensus positions, must
// equal Σ DistNaive on every dataset shape the tiers serve: the reference
// shares no code with the kernel, so a kernel bug cannot hide behind it.
func TestQuickFastMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(uint8) bool {
		n := 2 + rng.Intn(40)
		r := randomPartialRanking(rng, n)
		s := randomPartialRanking(rng, n)
		g := DistNaive(r, s, n)
		if Dist(r, s, n) != g {
			return false
		}
		pr, ps := r.Positions(n), s.Positions(n)
		return DistPositions(pr, ps) == g &&
			DistPositions(compactPositions(pr, s)) == g &&
			DistPositions(compactPositions(ps, r)) == g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}

	topK := func(rng *rand.Rand, n int) *rankings.Ranking {
		return rankings.FromPermutation(rng.Perm(n)[:1+rng.Intn(8)])
	}
	shapes := []struct {
		name      string
		consensus func(rng *rand.Rand, n int) *rankings.Ranking
		ranking   func(rng *rand.Rand, n int) *rankings.Ranking
	}{
		{"top-k lists, L ≪ n", randomRanking, topK},
		{"complete rankings with ties", randomRanking, randomRanking},
		{"partial consensus", randomPartialRanking, func(rng *rand.Rand, n int) *rankings.Ranking {
			if rng.Intn(2) == 0 {
				return topK(rng, n)
			}
			return randomRanking(rng, n)
		}},
		// The consensus ranks the lower half of the universe, every list
		// the upper half plus at most one shared element: no pair counts.
		{"lists disjoint from the consensus", func(rng *rand.Rand, n int) *rankings.Ranking {
			return randomRanking(rng, n/2)
		}, func(rng *rand.Rand, n int) *rankings.Ranking {
			l := rng.Perm(n - n/2)[:1+rng.Intn(8)]
			for i := range l {
				l[i] += n / 2
			}
			if rng.Intn(2) == 0 {
				l[0] = rng.Intn(n / 2)
			}
			return rankings.FromPermutation(l)
		}},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 40; trial++ {
			n := 20 + rng.Intn(120)
			c := sh.consensus(rng, n)
			rks := make([]*rankings.Ranking, 1+rng.Intn(10))
			var want int64
			for i := range rks {
				rks[i] = sh.ranking(rng, n)
				want += DistNaive(c, rks[i], n)
			}
			if got := Score(c, rankings.NewDataset(n, rks...)); got != want {
				t.Fatalf("%s, trial %d: Score = %d, Σ DistNaive = %d", sh.name, trial, got, want)
			}
		}
	}
}

// compactPositions is DistPositions' compact calling convention: for each
// element of r, in r's bucket order, its position in pc and its own 1-based
// bucket index.
func compactPositions(pc []int, r *rankings.Ranking) (pr, ps []int) {
	for i, b := range r.Buckets {
		for _, e := range b {
			pr = append(pr, pc[e])
			ps = append(ps, i+1)
		}
	}
	return pr, ps
}

// TestQuickTriangleInequality: G is a true distance on bucket orders over
// the same element set (Fagin et al. 2006), so the triangle inequality must
// hold for complete rankings.
func TestQuickTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(uint8) bool {
		n := 2 + rng.Intn(20)
		a, b, c := randomRanking(rng, n), randomRanking(rng, n), randomRanking(rng, n)
		return Dist(a, c, n) <= Dist(a, b, n)+Dist(b, c, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSimilarityBounds(t *testing.T) {
	d, _ := mustDS(t, "A>B>C", "A>B>C", "A>B>C")
	if got := Similarity(d); math.Abs(got-1) > 1e-12 {
		t.Errorf("Similarity of identical rankings = %v, want 1", got)
	}
	d2, _ := mustDS(t, "A>B>C", "C>B>A")
	if got := Similarity(d2); math.Abs(got+1) > 1e-12 {
		t.Errorf("Similarity of reversed pair = %v, want -1", got)
	}
}

func TestSimilarityFewRankings(t *testing.T) {
	d, _ := mustDS(t, "A>B")
	if got := Similarity(d); got != 0 {
		t.Errorf("Similarity of single ranking = %v, want 0", got)
	}
}

func TestTauFewCommon(t *testing.T) {
	u := rankings.NewUniverse()
	r := rankings.MustParse("A", u)
	s := rankings.MustParse("B", u)
	if got := Tau(r, s, 2); got != 0 {
		t.Errorf("Tau with no common elements = %v, want 0", got)
	}
}

func TestCountInversions(t *testing.T) {
	cases := []struct {
		v    []int
		want int64
	}{
		{nil, 0},
		{[]int{1}, 0},
		{[]int{1, 2, 3}, 0},
		{[]int{3, 2, 1}, 3},
		{[]int{2, 2, 1}, 2},
		{[]int{1, 3, 2, 4}, 1},
	}
	for _, tc := range cases {
		v := append([]int(nil), tc.v...)
		if got := mergeCount(v, make([]int, len(v))); got != tc.want {
			t.Errorf("mergeCount(%v) = %d, want %d", tc.v, got, tc.want)
		}
		if !slices.IsSorted(v) {
			t.Errorf("mergeCount(%v) left %v unsorted", tc.v, v)
		}
	}
}
