package algo

import (
	"math/rand"
	"testing"

	"rankagg/internal/core"
	"rankagg/internal/gen"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// TestPermutationInputsHavePermutationOptimum verifies the theorem of
// Brancotte & Milosz [9] the paper relies on (Section 4): "Considering a
// set of such rankings [permutations], we have proved that under the
// generalized Kendall-τ distance the optimal consensus obtained has
// necessarily only buckets of size one." Consequently the ties-aware exact
// optimum must coincide with the permutation-only exact optimum (BnB).
func TestPermutationInputsHavePermutationOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(4)
		m := 2 + rng.Intn(4)
		rks := make([]*rankings.Ranking, m)
		for i := range rks {
			rks[i] = gen.UniformPermutation(rng, n)
		}
		d := rankings.NewDataset(n, rks...)

		tied, exact1, err := aggregateExact(&ExactBnB{}, d)
		if err != nil {
			t.Fatal(err)
		}
		perm, exact2, err := aggregateExact(&BnB{}, d)
		if err != nil {
			t.Fatal(err)
		}
		if !exact1 || !exact2 {
			t.Fatal("both searches must be exact at this size")
		}
		st, sp := kendall.Score(tied, d), kendall.Score(perm, d)
		if st != sp {
			t.Fatalf("trial %d: ties-aware optimum %d != permutation optimum %d (violates [9])",
				trial, st, sp)
		}
		// The returned ties-aware optimum itself need not be a permutation
		// only if multiple optima exist; but its score must not be improved
		// by any bucket order, which the equality above already certifies.
		// Additionally check a brute-force sweep for small n.
		if n <= 5 {
			_, want := bruteForceOptimum(d)
			if st != want {
				t.Fatalf("trial %d: exact %d != brute force %d", trial, st, want)
			}
		}
	}
}

// TestTiesOptimumCanBeatPermutations: the converse situation — with tied
// inputs, allowing ties in the output can strictly lower the score, which
// is the whole point of the generalized distance. BnB, which searches
// permutations only, must then not claim a proof, while both ties-aware
// exact methods prove the tied optimum.
func TestTiesOptimumCanBeatPermutations(t *testing.T) {
	for _, c := range []struct {
		specs         []string
		tied, permOpt int64
	}{
		// Three rankings tying A and B; any permutation must untie them,
		// paying 3, while the tied consensus pays 0.
		{[]string{"[{A,B},{C}]", "[{A,B},{C}]", "[{A,B},{C}]"}, 0, 3},
		{[]string{"[{A,B}]", "[{A,B}]", "[{A},{B}]"}, 1, 2},
	} {
		d, _ := mustDS(t, c.specs...)
		perm, proved, err := aggregateExact(&BnB{}, d)
		if err != nil {
			t.Fatal(err)
		}
		if sp := kendall.Score(perm, d); sp != c.permOpt || proved {
			t.Errorf("%v: BnB scored %d (want %d), proved %v (want false)", c.specs, sp, c.permOpt, proved)
		}
		for _, e := range []core.ExactAggregator{&ExactBnB{}, &ExactLPB{}} {
			tied, proved, err := aggregateExact(e, d)
			if err != nil {
				t.Fatal(err)
			}
			if st := kendall.Score(tied, d); st != c.tied || !proved {
				t.Errorf("%v: %s scored %d (want %d), proved %v (want true)", c.specs, e.Name(), st, c.tied, proved)
			}
		}
	}
}
