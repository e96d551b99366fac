package approx

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"rankagg/internal/core"
	"rankagg/internal/gen"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// aggregate runs a single-worker core.Run of a on d and returns the
// consensus.
func aggregate(a core.Aggregator, d *rankings.Dataset) (*rankings.Ranking, error) {
	rr, err := core.Run(context.Background(), a, d, core.RunOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	return rr.Consensus, nil
}

// codeNaive is the O(n²) definition the Fenwick pass must match: code[e]
// counts the elements smaller than e ranked strictly after e, with absent
// elements tied in a virtual last bucket.
func codeNaive(r *rankings.Ranking, n int) []int32 {
	pos := r.Positions(n)
	virt := len(r.Buckets) + 1
	code := make([]int32, n)
	for e := 0; e < n; e++ {
		pe := pos[e]
		if pe == 0 {
			pe = virt
		}
		for x := 0; x < e; x++ {
			px := pos[x]
			if px == 0 {
				px = virt
			}
			if px > pe {
				code[e]++
			}
		}
	}
	return code
}

// randomTied returns a random ranking with ties over a subset of [0, n):
// each element is dropped with probability drop, the rest are shuffled and
// cut into random buckets.
func randomTied(rng *rand.Rand, n int, drop float64) *rankings.Ranking {
	var elems []int
	for e := 0; e < n; e++ {
		if rng.Float64() >= drop {
			elems = append(elems, e)
		}
	}
	if len(elems) == 0 {
		elems = []int{rng.Intn(n)}
	}
	rng.Shuffle(len(elems), func(i, j int) { elems[i], elems[j] = elems[j], elems[i] })
	var r rankings.Ranking
	for i := 0; i < len(elems); {
		j := i + 1 + rng.Intn(len(elems)-i)
		r.Buckets = append(r.Buckets, elems[i:j])
		i = j
	}
	return &r
}

// TestCodeRankingMatchesNaive pins the Fenwick encoder against the O(n²)
// definition on random tied and incomplete rankings, and checks the
// decodability invariant 0 ≤ code[e] ≤ e.
func TestCodeRankingMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		r := randomTied(rng, n, []float64{0, 0.3}[rng.Intn(2)])
		f := newFenwick(n)
		got := make([]int32, n)
		codeRanking(r, n, f, got)
		want := codeNaive(r, n)
		for e := 0; e < n; e++ {
			if got[e] != want[e] {
				t.Fatalf("trial %d n=%d r=%v: code[%d] = %d, naive %d", trial, n, r, e, got[e], want[e])
			}
			if got[e] < 0 || got[e] > int32(e) {
				t.Fatalf("trial %d: code[%d] = %d outside [0, %d]", trial, e, got[e], e)
			}
		}
	}
}

// TestLehmerRoundTrip is the encode/decode inversion property: a
// one-ranking dataset of a strict permutation must aggregate to exactly
// that permutation (the m=1 median is the code itself, so decode must
// invert codeRanking).
func TestLehmerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		r := rankings.FromPermutation(rng.Perm(n))
		got, err := aggregate(Lehmer{}, rankings.NewDataset(n, r))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(r) {
			t.Fatalf("trial %d: roundtrip of %v gave %v", trial, r, got)
		}
	}
}

// TestLehmerOutputIsPermutation: on any input — ties, missing elements —
// the decoded consensus is a strict permutation of the full universe.
func TestLehmerOutputIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 100; trial++ {
		n, m := 1+rng.Intn(25), 1+rng.Intn(8)
		rks := make([]*rankings.Ranking, m)
		for j := range rks {
			rks[j] = randomTied(rng, n, 0.25)
		}
		got, err := aggregate(Lehmer{}, rankings.NewDataset(n, rks...))
		if err != nil {
			t.Fatal(err)
		}
		if !got.IsPermutation() || got.Len() != n {
			t.Fatalf("trial %d: consensus %v is not a permutation of %d elements", trial, got, n)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestUnanimity: every approx algorithm returns a unanimous permutation
// dataset's single order verbatim.
func TestUnanimity(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, name := range []string{"lehmer", "avgrank", "scores"} {
		a, err := core.New(name)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			n, m := 2+rng.Intn(20), 1+rng.Intn(6)
			r := rankings.FromPermutation(rng.Perm(n))
			rks := make([]*rankings.Ranking, m)
			for j := range rks {
				rks[j] = r
			}
			got, err := aggregate(a, rankings.NewDataset(n, rks...))
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(r) {
				t.Fatalf("%s trial %d: unanimous %v gave %v", name, trial, r, got)
			}
		}
	}
}

// TestScoreRankHandExample pins avgrank on a worked example with a tie:
// rankings [{0},{1,2}] and [{1},{0},{2}] give doubled sums 0:2+4=6,
// 1:5+2=7, 2:5+6=11 — consensus [{0},{1},{2}].
func TestScoreRankHandExample(t *testing.T) {
	d := rankings.NewDataset(3,
		rankings.New([]int{0}, []int{1, 2}),
		rankings.New([]int{1}, []int{0}, []int{2}),
	)
	got, err := aggregate(ScoreRank{}, d)
	if err != nil {
		t.Fatal(err)
	}
	want := rankings.New([]int{0}, []int{1}, []int{2})
	if !got.Equal(want) {
		t.Fatalf("avgrank = %v, want %v", got, want)
	}
}

// TestScoreRankTiesOnEqualSums: symmetric disagreement must yield a tie,
// not an arbitrary order.
func TestScoreRankTiesOnEqualSums(t *testing.T) {
	d := rankings.NewDataset(2,
		rankings.New([]int{0}, []int{1}),
		rankings.New([]int{1}, []int{0}),
	)
	got, err := aggregate(ScoreRank{}, d)
	if err != nil {
		t.Fatal(err)
	}
	if want := rankings.New([]int{0, 1}); !got.Equal(want) {
		t.Fatalf("avgrank = %v, want %v", got, want)
	}
}

// TestAvgRankScoresAgreeOnComplete: the two absent-element rules are
// unreachable on complete datasets, so the variants must coincide there —
// and a top-list dataset must separate them.
func TestAvgRankScoresAgreeOnComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for trial := 0; trial < 50; trial++ {
		n, m := 2+rng.Intn(20), 1+rng.Intn(6)
		rks := make([]*rankings.Ranking, m)
		for j := range rks {
			rks[j] = gen.UniformRanking(rng, n)
		}
		d := rankings.NewDataset(n, rks...)
		a, err := aggregate(ScoreRank{}, d)
		if err != nil {
			t.Fatal(err)
		}
		b, err := aggregate(ScoreRank{Optimistic: true}, d)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("trial %d: avgrank %v != scores %v on complete dataset", trial, a, b)
		}
	}
	// One short top-2 list among full rankings over n=6: avgrank buries the
	// unseen elements, scores lets the full rankings decide.
	d := rankings.NewDataset(6,
		rankings.New([]int{5}, []int{4}),
		rankings.New([]int{0}, []int{1}, []int{2}, []int{3}, []int{4}, []int{5}),
		rankings.New([]int{0}, []int{1}, []int{2}, []int{3}, []int{4}, []int{5}),
	)
	a, _ := aggregate(ScoreRank{}, d)
	b, _ := aggregate(ScoreRank{Optimistic: true}, d)
	if a.Equal(b) {
		t.Fatalf("avgrank and scores agree on the top-list dataset (%v); the absent rules are not distinct", a)
	}
}

// TestIncompleteAccepted: the tier's algorithms take top-k lists directly
// where the exact tier demands normalization first.
func TestIncompleteAccepted(t *testing.T) {
	d := rankings.NewDataset(5,
		rankings.New([]int{0}, []int{1}),
		rankings.New([]int{2}, []int{0}),
	)
	if err := core.CheckInput(d); !errors.Is(err, core.ErrIncomplete) {
		t.Fatalf("exact-tier CheckInput = %v, want ErrIncomplete", err)
	}
	for _, name := range []string{"lehmer", "avgrank", "scores"} {
		a, err := core.New(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := aggregate(a, d)
		if err != nil {
			t.Fatalf("%s on top-lists: %v", name, err)
		}
		if r.Len() != 5 {
			t.Fatalf("%s consensus %v does not cover the universe", name, r)
		}
	}
}

// TestErrors: empty and invalid datasets are rejected like the exact tier.
func TestErrors(t *testing.T) {
	for _, name := range []string{"lehmer", "avgrank", "scores"} {
		a, err := core.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := aggregate(a, nil); !errors.Is(err, core.ErrEmpty) {
			t.Errorf("%s(nil) = %v, want ErrEmpty", name, err)
		}
		if _, err := aggregate(a, rankings.NewDataset(3)); !errors.Is(err, core.ErrEmpty) {
			t.Errorf("%s(no rankings) = %v, want ErrEmpty", name, err)
		}
		bad := rankings.NewDataset(2, rankings.New([]int{0, 0}))
		if _, err := aggregate(a, bad); err == nil {
			t.Errorf("%s accepted a duplicate-element ranking", name)
		}
	}
}

// TestMatrixFreeMarker: all three register as matrix-free; the exact tier's
// algorithms must not.
func TestMatrixFreeMarker(t *testing.T) {
	for _, name := range []string{"lehmer", "avgrank", "scores"} {
		a, err := core.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if !core.IsMatrixFree(a) {
			t.Errorf("%s is not marked matrix-free", name)
		}
	}
}

// TestDefault routes permutation datasets to lehmer and tied ones to
// avgrank.
func TestDefault(t *testing.T) {
	perm := rankings.NewDataset(3, rankings.FromPermutation([]int{2, 0, 1}), rankings.New([]int{1}, []int{0}))
	if got := Default(perm); got != "lehmer" {
		t.Errorf("Default(permutations) = %q", got)
	}
	tied := rankings.NewDataset(3, rankings.New([]int{0, 1}, []int{2}))
	if got := Default(tied); got != "avgrank" {
		t.Errorf("Default(ties) = %q", got)
	}
}

// TestLehmerBeatsWorstInput is a weak quality floor: on Mallows-noised
// datasets the lehmer consensus must score no worse than the dataset's
// worst input ranking (a trivially available consensus).
func TestLehmerBeatsWorstInput(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for trial := 0; trial < 20; trial++ {
		n, m := 10+rng.Intn(30), 3+2*rng.Intn(4)
		d := gen.MallowsDataset(rng, m, n, 0.3)
		got, err := aggregate(Lehmer{}, d)
		if err != nil {
			t.Fatal(err)
		}
		score := kendall.Score(got, d)
		worst := int64(-1)
		for _, r := range d.Rankings {
			if s := kendall.Score(r, d); s > worst {
				worst = s
			}
		}
		if score > worst {
			t.Fatalf("trial %d (n=%d m=%d): lehmer score %d worse than worst input %d", trial, n, m, score, worst)
		}
	}
}

// TestPredictBytesSaturates: the per-element state prediction grows with
// n and saturates instead of overflowing, so admission rejects any
// universe a request can declare beyond what memory holds.
func TestPredictBytesSaturates(t *testing.T) {
	if got := PredictBytes(5000); got != 5000*bytesPerElement {
		t.Errorf("PredictBytes(5000) = %d, want %d", got, 5000*bytesPerElement)
	}
	for _, n := range []int{math.MaxInt64/bytesPerElement + 1, math.MaxInt} {
		if got := PredictBytes(n); got != math.MaxInt64 {
			t.Errorf("PredictBytes(%d) = %d, want math.MaxInt64", n, got)
		}
	}
}
