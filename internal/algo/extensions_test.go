package algo

import (
	"math/rand"
	"testing"

	"rankagg/internal/core"
	"rankagg/internal/kendall"
)

func TestAnnealNotWorseThanSeedAndLocalOpt(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 8; trial++ {
		d := randomTiedDataset(rng, 5, 10)
		p := kendall.NewPairs(d)
		r, err := aggregate(&Anneal{Sweeps: 20}, d, core.RunOptions{Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		checkConsensus(t, "Anneal", d, r)
		// The final descent guarantees a local optimum at least as good as
		// the best input.
		for _, in := range d.Rankings {
			if p.Score(r) > p.Score(in) {
				t.Fatalf("Anneal (%d) worse than input (%d)", p.Score(r), p.Score(in))
			}
		}
	}
}

func TestAnnealFindsOptimumOnSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	hits := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		d := randomTiedDataset(rng, 4, 5)
		_, want := bruteForceOptimum(d)
		r, err := aggregate(&Anneal{}, d, core.RunOptions{Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if kendall.Score(r, d) == want {
			hits++
		}
	}
	if hits < trials-2 {
		t.Errorf("Anneal found the optimum on only %d/%d tiny instances", hits, trials)
	}
}

func TestChainedBeatsFirstStage(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 10; trial++ {
		d := randomTiedDataset(rng, 5, 12)
		p := kendall.NewPairs(d)
		first, err := aggregate(&Borda{}, d)
		if err != nil {
			t.Fatal(err)
		}
		chained, err := aggregate(&Chained{}, d)
		if err != nil {
			t.Fatal(err)
		}
		if p.Score(chained) > p.Score(first) {
			t.Fatalf("chain (%d) worse than its first stage (%d)",
				p.Score(chained), p.Score(first))
		}
	}
}

func TestChainedName(t *testing.T) {
	if got := (&Chained{}).Name(); got != "BordaCount+BioConsert" {
		t.Errorf("Name = %q", got)
	}
	c := &Chained{First: &KwikSort{}, Refiner: &Anneal{}}
	if got := c.Name(); got != "KwikSort+Anneal" {
		t.Errorf("Name = %q", got)
	}
}

func TestFootruleMedianOrdersByMedian(t *testing.T) {
	d, u := mustDS(t, "A>B>C", "A>B>C", "C>A>B")
	r, err := aggregate(FootruleMedian{}, d)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := u.Lookup("A")
	pos := r.Positions(d.N)
	if pos[a] != 1 {
		t.Errorf("A has median position 1 and must lead: %v", r)
	}
}

func TestFootruleMedianTiesEqualMedians(t *testing.T) {
	// Two rankings disagreeing symmetrically: A and B have the same median.
	d, _ := mustDS(t, "A>B", "B>A")
	r, err := aggregate(FootruleMedian{}, d)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumBuckets() != 1 {
		t.Errorf("equal medians must tie: %v", r)
	}
}

func TestMCVariantsRankCondorcetWinnerFirst(t *testing.T) {
	d, u := mustDS(t, "A>B>C>D", "A>C>B>D", "A>B>D>C", "B>A>C>D")
	a, _ := u.Lookup("A")
	for v := 1; v <= 4; v++ {
		mc := &MarkovChain{Variant: v}
		r, err := aggregate(mc, d)
		if err != nil {
			t.Fatal(err)
		}
		checkConsensus(t, mc.Name(), d, r)
		pos := r.Positions(d.N)
		if pos[a] != 1 {
			t.Errorf("%s: A (majority winner) ranked at %d: %v", mc.Name(), pos[a], r)
		}
	}
}

func TestMCVariantsHandleTiedInputs(t *testing.T) {
	d, _ := mustDS(t, "[{A,B},{C}]", "[{A,B},{C}]")
	for v := 1; v <= 4; v++ {
		mc := &MarkovChain{Variant: v}
		r, err := aggregate(mc, d)
		if err != nil {
			t.Fatalf("%s: %v", mc.Name(), err)
		}
		pos := r.Positions(d.N)
		if pos[0] != pos[1] {
			t.Errorf("%s: symmetric tied elements should have equal stationary mass: %v", mc.Name(), r)
		}
		if pos[2] <= pos[0] {
			t.Errorf("%s: C must rank after A,B: %v", mc.Name(), r)
		}
	}
}

func TestMCNameAndDefaults(t *testing.T) {
	if got := (&MarkovChain{}).Name(); got != "MC4" {
		t.Errorf("zero-value variant = %q, want MC4", got)
	}
	if got := (&MarkovChain{Variant: 2}).Name(); got != "MC2" {
		t.Errorf("Name = %q", got)
	}
}

func TestCopelandPairwiseCondorcet(t *testing.T) {
	// A beats everyone pairwise but is not Borda-first: classic profile.
	d, u := mustDS(t,
		"A>B>C",
		"A>C>B",
		"B>C>A",
		"C>B>A",
		"A>B>C",
	)
	r, err := aggregate(&CopelandPairwise{}, d)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := u.Lookup("A")
	if r.Positions(d.N)[a] != 1 {
		t.Errorf("Condorcet winner A must be first: %v", r)
	}
}

func TestCopelandPairwiseDrawsScoreOne(t *testing.T) {
	// Perfect cycle A>B, B>C, C>A plus reversed: all pairs drawn, so every
	// element scores n-1 and the tie-enabled variant puts all in one bucket.
	d, _ := mustDS(t, "A>B>C", "C>B>A")
	r, err := aggregate(&CopelandPairwise{TieEqualScores: true}, d)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumBuckets() != 1 {
		t.Errorf("all-drawn profile must fully tie: %v", r)
	}
}
