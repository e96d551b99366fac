package algo

import (
	"context"
	"math/rand"
	"testing"

	"rankagg/internal/core"
	"rankagg/internal/gen"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// mustDS parses rankings sharing a universe.
func mustDS(t *testing.T, specs ...string) (*rankings.Dataset, *rankings.Universe) {
	t.Helper()
	u := rankings.NewUniverse()
	var rks []*rankings.Ranking
	for _, s := range specs {
		rks = append(rks, rankings.MustParse(s, u))
	}
	return rankings.FromRankings(rks...), u
}

// aggregate runs a on d through core.Run, the way every caller reaches an
// algorithm, with opts (at most one; none is the zero RunOptions) and
// returns the consensus.
func aggregate(a core.Aggregator, d *rankings.Dataset, opts ...core.RunOptions) (*rankings.Ranking, error) {
	var o core.RunOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	rr, err := core.Run(context.Background(), a, d, o)
	if err != nil {
		return nil, err
	}
	return rr.Consensus, nil
}

// aggregateExact is aggregate for exact methods: it also reports whether
// the consensus was proved optimal.
func aggregateExact(a core.ExactAggregator, d *rankings.Dataset) (*rankings.Ranking, bool, error) {
	rr, err := core.Run(context.Background(), a, d, core.RunOptions{})
	if err != nil {
		return nil, false, err
	}
	return rr.Consensus, rr.Proved, nil
}

// paperTiesDataset is the Section 2.2 example with optimal consensus
// [{A},{D},{B,C}] and K = 5.
func paperTiesDataset(t *testing.T) (*rankings.Dataset, *rankings.Universe) {
	return mustDS(t, "[{A},{D},{B,C}]", "[{A},{B,C},{D}]", "[{D},{A,C},{B}]")
}

// bruteForceOptimum scores every bucket order over d.N elements.
func bruteForceOptimum(d *rankings.Dataset) (*rankings.Ranking, int64) {
	p := kendall.NewPairs(d)
	var best *rankings.Ranking
	var bestScore int64
	for _, r := range gen.EnumerateBucketOrders(d.N) {
		if s := p.Score(r); best == nil || s < bestScore {
			best, bestScore = r, s
		}
	}
	return best, bestScore
}

func randomTiedDataset(rng *rand.Rand, m, n int) *rankings.Dataset {
	rks := make([]*rankings.Ranking, m)
	for i := range rks {
		rks[i] = gen.UniformRanking(rng, n)
	}
	return rankings.NewDataset(n, rks...)
}

// checkConsensus validates that r is a complete ranking over d's universe.
func checkConsensus(t *testing.T, name string, d *rankings.Dataset, r *rankings.Ranking) {
	t.Helper()
	if r == nil {
		t.Fatalf("%s returned nil consensus", name)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("%s returned invalid consensus: %v", name, err)
	}
	if r.Len() != d.N {
		t.Fatalf("%s consensus covers %d of %d elements", name, r.Len(), d.N)
	}
}

func TestExactBnBPaperTiesExample(t *testing.T) {
	d, u := paperTiesDataset(t)
	e := &ExactBnB{}
	r, exact, err := aggregateExact(e, d)
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Fatal("small instance must be solved exactly")
	}
	checkConsensus(t, "ExactBnB", d, r)
	if got := kendall.Score(r, d); got != 5 {
		t.Errorf("optimal score = %d, want 5 (paper Section 2.2)", got)
	}
	want := rankings.MustParse("[{A},{D},{B,C}]", u)
	if !r.Clone().Canonicalize().Equal(want.Canonicalize()) {
		t.Logf("note: different optimum found: %s (score still optimal)", u.Format(r))
	}
}

func TestExactBnBPaperPermutationExample(t *testing.T) {
	d, _ := mustDS(t, "A>D>B>C", "A>C>B>D", "D>A>C>B")
	r, exact, err := aggregateExact(&ExactBnB{}, d)
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Fatal("want exact")
	}
	// The generalized optimum over bucket orders can only be ≤ the
	// permutation optimum 4; for permutation inputs the paper proves it has
	// only singleton buckets, so it is exactly 4.
	if got := kendall.Score(r, d); got != 4 {
		t.Errorf("optimal score = %d, want 4 (paper Section 2.1)", got)
	}
}

// TestExactMatchesBruteForce cross-validates both exact solvers against
// exhaustive enumeration on random small instances — the core correctness
// test of the repository.
func TestExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(4) // 2..5
		m := 1 + rng.Intn(5)
		d := randomTiedDataset(rng, m, n)
		_, want := bruteForceOptimum(d)

		for _, pre := range []bool{false, true} {
			e := &ExactBnB{Preprocess: pre}
			r, exact, err := aggregateExact(e, d)
			if err != nil {
				t.Fatal(err)
			}
			if !exact {
				t.Fatalf("trial %d: ExactBnB(pre=%v) not exact", trial, pre)
			}
			checkConsensus(t, "ExactBnB", d, r)
			if got := kendall.Score(r, d); got != want {
				t.Fatalf("trial %d: ExactBnB(pre=%v) score %d, brute force %d\ndataset: %v",
					trial, pre, got, want, d.Rankings)
			}
		}

		lpb := &ExactLPB{}
		r, exact, err := aggregateExact(lpb, d)
		if err != nil {
			t.Fatal(err)
		}
		if !exact {
			t.Fatalf("trial %d: ExactLPB not exact", trial)
		}
		checkConsensus(t, "ExactLPB", d, r)
		if got := kendall.Score(r, d); got != want {
			t.Fatalf("trial %d: ExactLPB score %d, brute force %d\ndataset: %v",
				trial, got, want, d.Rankings)
		}
	}
}

// TestExactTwoSolversAgreeMedium cross-validates the two exact methods on
// slightly larger instances where brute force is already painful.
func TestExactTwoSolversAgreeMedium(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 5; trial++ {
		d := randomTiedDataset(rng, 4, 7)
		r1, ex1, err := aggregateExact(&ExactBnB{Preprocess: true}, d)
		if err != nil {
			t.Fatal(err)
		}
		r2, ex2, err := aggregateExact(&ExactLPB{}, d)
		if err != nil {
			t.Fatal(err)
		}
		if !ex1 || !ex2 {
			t.Fatal("both solvers must prove optimality at n=7")
		}
		s1, s2 := kendall.Score(r1, d), kendall.Score(r2, d)
		if s1 != s2 {
			t.Fatalf("trial %d: ExactBnB=%d ExactLPB=%d", trial, s1, s2)
		}
	}
}

// TestHeuristicsNeverBeatExact: the defining invariant of every heuristic —
// its score is bounded below by the optimum (gap ≥ 0).
func TestHeuristicsNeverBeatExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	names := core.Names()
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(3)
		d := randomTiedDataset(rng, 2+rng.Intn(4), n)
		_, want := bruteForceOptimum(d)
		for _, name := range names {
			a, err := core.New(name)
			if err != nil {
				t.Fatal(err)
			}
			r, err := aggregate(a, d)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkConsensus(t, name, d, r)
			if got := kendall.Score(r, d); got < want {
				t.Fatalf("%s scored %d below the optimum %d — impossible", name, got, want)
			}
		}
	}
}

// TestAllAlgorithmsOnIdenticalInputs: when every input is the same ranking
// with ties, the ties-aware algorithms must return it exactly (score 0).
func TestAllAlgorithmsOnIdenticalInputs(t *testing.T) {
	u := rankings.NewUniverse()
	r := rankings.MustParse("[{A,B},{C},{D,E}]", u)
	d := rankings.NewDataset(5, r, r.Clone(), r.Clone())
	for _, name := range []string{
		"BioConsert", "KwikSort", "KwikSortMin", "FaginSmall", "FaginLarge",
		"MEDRank(0.5)", "MEDRank(0.7)", "Pick-a-Perm", "ExactAlgorithm", "ExactLPB",
	} {
		a, err := core.New(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := aggregate(a, d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s := kendall.Score(got, d); s != 0 {
			t.Errorf("%s: score %d on identical tie inputs, want 0 (got %s)", name, s, got)
		}
	}
}

func TestAggregatorsRejectIncompleteAndEmpty(t *testing.T) {
	u := rankings.NewUniverse()
	incomplete := rankings.NewDataset(3,
		rankings.MustParse("A>B", u),
		rankings.MustParse("C", u),
	)
	empty := rankings.NewDataset(0)
	for _, name := range core.Names() {
		a, _ := core.New(name)
		if _, err := aggregate(a, incomplete); err == nil {
			t.Errorf("%s accepted an incomplete dataset", name)
		}
		if _, err := aggregate(a, empty); err == nil {
			t.Errorf("%s accepted an empty dataset", name)
		}
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	names := core.Names()
	if len(names) < 15 {
		t.Fatalf("only %d registered aggregators: %v", len(names), names)
	}
	for _, n := range names {
		a, err := core.New(n)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() == "" {
			t.Errorf("%s has empty Name()", n)
		}
	}
	if _, err := core.New("NoSuchAlgorithm"); err == nil {
		t.Error("unknown name must error")
	}
}
