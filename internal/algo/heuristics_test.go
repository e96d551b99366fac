package algo

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rankagg/internal/core"
	"rankagg/internal/gen"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

func TestBordaTieAdaptedPositions(t *testing.T) {
	// r = [{A,B},{C}]: pos(A)=pos(B)=1, pos(C)=3 (two elements before it).
	d, u := mustDS(t, "[{A,B},{C}]")
	r, err := aggregate(&Borda{}, d)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := u.Lookup("A")
	c, _ := u.Lookup("C")
	pos := r.Positions(d.N)
	if pos[c] <= pos[a] {
		t.Errorf("C must rank after A: positions %v", pos)
	}
	// Scores: A=1, B=1, C=3. Without TieEqualScores A and B are split.
	if !r.IsPermutation() {
		t.Error("default Borda must output a permutation")
	}
	rt, err := aggregate(&Borda{TieEqualScores: true}, d)
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumBuckets() != 2 || len(rt.Buckets[0]) != 2 {
		t.Errorf("tie-enabled Borda should tie A and B: %v", rt)
	}
}

func TestBordaCopelandAgreeOnPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n, m := 2+rng.Intn(10), 1+rng.Intn(6)
		rks := make([]*rankings.Ranking, m)
		for i := range rks {
			rks[i] = gen.UniformPermutation(rng, n)
		}
		d := rankings.NewDataset(n, rks...)
		rb, err := aggregate(&Borda{}, d)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := aggregate(&Copeland{}, d)
		if err != nil {
			t.Fatal(err)
		}
		if !rb.Equal(rc) {
			t.Fatalf("on permutations Borda %v and Copeland %v must coincide", rb, rc)
		}
	}
}

func TestBordaCopelandDifferOnUnifiedTies(t *testing.T) {
	// The Section 4.1.3 example shape: x and y tied in most rankings, split
	// in one. Their Borda and Copeland scores react differently to the tie.
	d, u := mustDS(t,
		"[{X},{Y},{Z}]",
		"[{X,Y},{Z}]",
		"[{X,Y},{Z}]",
		"[{X,Y,Z}]",
	)
	x, _ := u.Lookup("X")
	y, _ := u.Lookup("Y")
	rb, _ := aggregate(&Borda{}, d)
	pos := rb.Positions(d.N)
	// Borda: pos(X) always 1; pos(Y) = 2 in the strict ranking -> X before Y.
	if pos[x] >= pos[y] {
		t.Errorf("Borda should untie X before Y, got %v", rb)
	}
}

func TestMEDRankRounds(t *testing.T) {
	// m=2, h=0.5 -> threshold 1: every element is emitted the first round it
	// is seen in ANY ranking.
	d, u := mustDS(t, "[{A},{B},{C}]", "[{A},{C},{B}]")
	r, err := aggregate(&MEDRank{H: 0.5}, d)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := u.Lookup("A")
	b, _ := u.Lookup("B")
	c, _ := u.Lookup("C")
	pos := r.Positions(d.N)
	if pos[a] != 1 {
		t.Errorf("A seen by both at round 1, must lead: %v", r)
	}
	if pos[b] != pos[c] {
		t.Errorf("B and C both first reach the threshold at round 2 and must tie: %v", r)
	}
}

func TestMEDRankThresholdSensitivity(t *testing.T) {
	// With h=0.7 (threshold 2 of 2 rankings), B and C only qualify at their
	// second sighting.
	d, _ := mustDS(t, "[{A},{B},{C}]", "[{A},{C},{B}]")
	r5, _ := aggregate(&MEDRank{H: 0.5}, d)
	r7, _ := aggregate(&MEDRank{H: 0.7}, d)
	if r5.Equal(r7) {
		t.Log("thresholds agreed on this tiny dataset (acceptable)")
	}
	if r7.Len() != 3 {
		t.Errorf("MEDRank(0.7) lost elements: %v", r7)
	}
}

func TestMEDRankTiedBucketsReadTogether(t *testing.T) {
	// Ties adaptation: "multiple elements can be read at the same time".
	d, _ := mustDS(t, "[{A,B},{C}]", "[{A,B},{C}]")
	r, _ := aggregate(&MEDRank{H: 0.5}, d)
	if r.NumBuckets() != 2 || len(r.Buckets[0]) != 2 {
		t.Errorf("A,B read together must tie: %v", r)
	}
}

func TestMC4DominantElementWins(t *testing.T) {
	d, u := mustDS(t, "A>B>C>D", "A>C>B>D", "A>B>D>C")
	r, err := aggregate(&MC4{}, d)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := u.Lookup("A")
	dd, _ := u.Lookup("D")
	pos := r.Positions(d.N)
	if pos[a] != 1 {
		t.Errorf("A (Condorcet winner) must be first: %v", r)
	}
	if pos[dd] != r.NumBuckets() {
		t.Errorf("D (Condorcet loser) must be last: %v", r)
	}
}

func TestPickAPermReturnsAnInput(t *testing.T) {
	d, _ := paperTiesDataset(t)
	r, err := aggregate(PickAPerm{}, d)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, in := range d.Rankings {
		if r.Equal(in) {
			found = true
		}
	}
	if !found {
		t.Errorf("Pick-a-Perm must return one of the inputs, got %v", r)
	}
	// And the best-scoring one.
	p := kendall.NewPairs(d)
	for _, in := range d.Rankings {
		if p.Score(in) < p.Score(r) {
			t.Errorf("input %v scores better than Pick-a-Perm's choice", in)
		}
	}
}

func TestRepeatChoiceKeepTiesVsBroken(t *testing.T) {
	d, _ := mustDS(t, "[{A,B},{C}]", "[{A,B},{C}]")
	tied, err := aggregate(&RepeatChoice{KeepTies: true}, d)
	if err != nil {
		t.Fatal(err)
	}
	if tied.IsPermutation() {
		t.Errorf("KeepTies run should preserve the unanimous tie: %v", tied)
	}
	broken, err := aggregate(&RepeatChoice{}, d)
	if err != nil {
		t.Fatal(err)
	}
	if !broken.IsPermutation() {
		t.Errorf("default RepeatChoice must output a permutation: %v", broken)
	}
}

func TestRepeatChoiceMinNotWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	p := func(uint8) bool {
		d := randomTiedDataset(rng, 3+rng.Intn(4), 3+rng.Intn(6))
		pm := kendall.NewPairs(d)
		one, err := aggregate(&RepeatChoice{Runs: 1}, d)
		if err != nil {
			return false
		}
		best, err := aggregate(&RepeatChoice{Runs: 16}, d)
		if err != nil {
			return false
		}
		return pm.Score(best) <= pm.Score(one)
	}
	if err := quick.Check(p, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestKwikSortDeterministicGivenSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	d := randomTiedDataset(rng, 5, 12)
	a1, _ := aggregate(&KwikSort{}, d, core.RunOptions{Seed: 7})
	a2, _ := aggregate(&KwikSort{}, d, core.RunOptions{Seed: 7})
	if !a1.Equal(a2) {
		t.Error("same seed must give the same consensus")
	}
}

func TestKwikSortMinNotWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 20; trial++ {
		d := randomTiedDataset(rng, 4, 10)
		p := kendall.NewPairs(d)
		one, _ := aggregate(&KwikSort{Runs: 1}, d)
		best, _ := aggregate(&KwikSort{Runs: 16}, d)
		if p.Score(best) > p.Score(one) {
			t.Fatalf("KwikSortMin (%d) worse than single run (%d)", p.Score(best), p.Score(one))
		}
	}
}

func TestKwikSortTiesWithPivotWhenFree(t *testing.T) {
	// All inputs tie everything: every element must be tied with the pivot.
	d, _ := mustDS(t, "[{A,B,C,D}]", "[{A,B,C,D}]")
	r, _ := aggregate(&KwikSort{}, d)
	if r.NumBuckets() != 1 {
		t.Errorf("unanimous tie must survive KwikSort: %v", r)
	}
}

func TestBioConsertIsLocalOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 10; trial++ {
		d := randomTiedDataset(rng, 4, 8)
		p := kendall.NewPairs(d)
		r, err := aggregate(&BioConsert{}, d)
		if err != nil {
			t.Fatal(err)
		}
		// Re-running the descent from the result must not improve it.
		again, score := localSearch(p, r)
		if score < p.Score(r) {
			t.Fatalf("BioConsert returned a non-local-optimum: %v improved to %v", r, again)
		}
	}
}

func TestBioConsertNotWorseThanInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 10; trial++ {
		d := randomTiedDataset(rng, 5, 9)
		p := kendall.NewPairs(d)
		r, _ := aggregate(&BioConsert{}, d)
		for _, in := range d.Rankings {
			if p.Score(r) > p.Score(in) {
				t.Fatalf("BioConsert (%d) worse than input %v (%d)", p.Score(r), in, p.Score(in))
			}
		}
	}
}

func TestBioConsertFindsPaperOptimum(t *testing.T) {
	d, _ := paperTiesDataset(t)
	r, _ := aggregate(&BioConsert{}, d)
	if got := kendall.Score(r, d); got != 5 {
		t.Errorf("BioConsert score = %d, want the optimum 5", got)
	}
}

func TestFaginVariantsBucketPreference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	largerWon, smallerWon := 0, 0
	for trial := 0; trial < 30; trial++ {
		d := randomTiedDataset(rng, 3, 8)
		rl, err := aggregate(&FaginDyn{PreferLarge: true}, d)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := aggregate(&FaginDyn{}, d)
		if err != nil {
			t.Fatal(err)
		}
		if rl.NumBuckets() < rs.NumBuckets() {
			largerWon++
		}
		if rl.NumBuckets() > rs.NumBuckets() {
			smallerWon++
		}
	}
	if smallerWon > largerWon {
		t.Errorf("FaginLarge should not produce more buckets than FaginSmall overall (%d vs %d)", largerWon, smallerWon)
	}
}

func TestFaginRespectsUnanimousTies(t *testing.T) {
	d, _ := mustDS(t, "[{A,B},{C,D}]", "[{A,B},{C,D}]")
	r, _ := aggregate(&FaginDyn{}, d)
	if got := kendall.Score(r, d); got != 0 {
		t.Errorf("FaginDyn should reproduce the unanimous bucket order, score %d (%v)", got, r)
	}
}

func TestChanasOutputsPermutation(t *testing.T) {
	d, _ := paperTiesDataset(t)
	for _, a := range []*Chanas{{}, {Both: true}} {
		r, err := aggregate(a, d)
		if err != nil {
			t.Fatal(err)
		}
		if !r.IsPermutation() {
			t.Errorf("%s must output a permutation: %v", a.Name(), r)
		}
	}
}

func TestChanasAdjacentSwapLocalOpt(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 10; trial++ {
		d := randomTiedDataset(rng, 4, 9)
		p := kendall.NewPairs(d)
		r, _ := aggregate(&Chanas{}, d)
		perm := r.Elements()
		for i := 0; i+1 < len(perm); i++ {
			a, b := perm[i], perm[i+1]
			if p.CostBefore(b, a) < p.CostBefore(a, b) {
				t.Fatalf("adjacent swap (%d,%d) would improve Chanas output", a, b)
			}
		}
	}
}

func TestChanasBothAtLeastAsGood(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 10; trial++ {
		d := randomTiedDataset(rng, 4, 9)
		p := kendall.NewPairs(d)
		r1, _ := aggregate(&Chanas{}, d)
		r2, _ := aggregate(&Chanas{Both: true}, d)
		if p.Score(r2) > p.Score(r1) {
			t.Fatalf("ChanasBoth (%d) worse than Chanas (%d)", p.Score(r2), p.Score(r1))
		}
	}
}

func TestAilonNearOptimalOnSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 8; trial++ {
		d := randomTiedDataset(rng, 4, 6)
		p := kendall.NewPairs(d)
		// Permutation optimum via exhaustive BnB: the inputs have ties, so
		// a completed search finds the best permutation without proving
		// it optimal among bucket orders.
		res, err := core.Run(context.Background(), &BnB{}, d, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.DeadlineHit {
			t.Fatal("BnB must complete at n=6")
		}
		perm := res.Consensus
		r, err := aggregate(&Ailon{}, d)
		if err != nil {
			t.Fatal(err)
		}
		if !r.IsPermutation() {
			t.Fatalf("Ailon must output a permutation: %v", r)
		}
		opt := float64(p.Score(perm))
		got := float64(p.Score(r))
		if got > 1.5*opt+1e-9 && got > opt+3 {
			t.Errorf("trial %d: Ailon score %v exceeds 3/2 × permutation optimum %v", trial, got, opt)
		}
	}
}

func TestAilonRejectsTooLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d := randomTiedDataset(rng, 3, 10)
	if _, err := aggregate(&Ailon{MaxElements: 5}, d); err == nil {
		t.Error("want TooLargeError")
	}
}

func TestBnBBeamReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		d := randomTiedDataset(rng, 4, 8)
		p := kendall.NewPairs(d)
		exact, _, err := aggregateExact(&BnB{}, d)
		if err != nil {
			t.Fatal(err)
		}
		beam, err := aggregate(&BnBBeam{Width: 16}, d)
		if err != nil {
			t.Fatal(err)
		}
		if p.Score(beam) < p.Score(exact) {
			t.Fatal("beam search cannot beat the exact permutation optimum")
		}
	}
}

func TestUnanimityDecomposition(t *testing.T) {
	// A and B always strictly before C and D; (A,B) and (C,D) are disputed.
	d, u := mustDS(t, "A>B>C>D", "B>A>D>C", "[{A,B},{C,D}]")
	p := kendall.NewPairs(d)
	elems := []int{0, 1, 2, 3}
	groups := UnanimityDecomposition(p, elems)
	if len(groups) != 2 {
		t.Fatalf("want 2 groups, got %v", groups)
	}
	a, _ := u.Lookup("A")
	c, _ := u.Lookup("C")
	if !contains(groups[0], a) || !contains(groups[1], c) {
		t.Errorf("groups misordered: %v", groups)
	}
}

func TestUnanimityDecompositionNoSplit(t *testing.T) {
	d, _ := mustDS(t, "A>B>C", "C>B>A")
	p := kendall.NewPairs(d)
	groups := UnanimityDecomposition(p, []int{0, 1, 2})
	if len(groups) != 1 {
		t.Fatalf("conflicting dataset must not split: %v", groups)
	}
}

func TestExactBnBTimeLimitReturnsIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	d := randomTiedDataset(rng, 6, 14)
	e := &ExactBnB{TimeLimit: 1} // 1ns: immediately out of budget
	r, exact, err := aggregateExact(e, d)
	if err != nil {
		t.Fatal(err)
	}
	if exact {
		t.Log("instance solved before the deadline check (acceptable)")
	}
	checkConsensus(t, "ExactBnB", d, r)
	// TimeLimit is only the default: a run's own limit replaces it.
	d, _ = paperTiesDataset(t)
	res, err := core.Run(context.Background(), e, d, core.RunOptions{TimeLimit: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved || res.DeadlineHit {
		t.Errorf("under a one-minute run limit: proved %v, deadline hit %v; want a proof", res.Proved, res.DeadlineHit)
	}
}

func TestExactBnBMaxElements(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	d := randomTiedDataset(rng, 3, 10)
	if _, _, err := aggregateExact(&ExactBnB{MaxElements: 5}, d); err == nil {
		t.Error("want TooLargeError")
	}
}

func contains(v []int, x int) bool {
	for _, e := range v {
		if e == x {
			return true
		}
	}
	return false
}

func TestFaginMedianKeyVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 5; trial++ {
		d := randomTiedDataset(rng, 4, 9)
		r, err := aggregate(&FaginDyn{MedianKey: true}, d)
		if err != nil {
			t.Fatal(err)
		}
		checkConsensus(t, "FaginDyn(median)", d, r)
	}
	// On unanimous inputs the median ordering reproduces the input exactly.
	d, _ := mustDS(t, "[{A,B},{C}]", "[{A,B},{C}]")
	r, err := aggregate(&FaginDyn{MedianKey: true}, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := kendall.Score(r, d); got != 0 {
		t.Errorf("median-key Fagin score %d on unanimous input, want 0", got)
	}
}
