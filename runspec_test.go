package rankagg

import (
	"context"
	"math/rand"
	"testing"

	"rankagg/internal/gen"
)

func specKeyOf(t *testing.T, sp RunSpec) string {
	t.Helper()
	k, err := sp.Key()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestRunSpecNormalizeDefaults pins the single default-resolution point:
// an absent seed and an explicit 0 describe the same run, capitalization
// canonicalizes through the registry, and negative counts clamp to
// "default".
func TestRunSpecNormalizeDefaults(t *testing.T) {
	n, err := RunSpec{Algorithm: "bioconsert", Restarts: -3, TimeoutMS: -1, Workers: -2}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Algorithm != "BioConsert" {
		t.Errorf("Algorithm = %q, want registry capitalization BioConsert", n.Algorithm)
	}
	if n.Seed == nil || *n.Seed != 0 {
		t.Errorf("nil seed must normalize to 0, got %v", n.Seed)
	}
	if n.Restarts != 0 || n.TimeoutMS != 0 || n.Workers != 0 {
		t.Errorf("negative counts must clamp to 0, got restarts=%d timeout=%d workers=%d",
			n.Restarts, n.TimeoutMS, n.Workers)
	}

	seven := int64(7)
	n2, err := RunSpec{Algorithm: "BioConsert", Seed: &seven}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n2.Seed == &seven {
		t.Error("Normalize must copy the seed, not alias the caller's pointer")
	}
	if *n2.Seed != 7 {
		t.Errorf("seed = %d, want 7", *n2.Seed)
	}

	if _, err := (RunSpec{}).Normalize(); err == nil {
		t.Error("empty algorithm must be rejected")
	}
	if _, err := (RunSpec{Algorithm: "NoSuchAlgorithm"}).Normalize(); err == nil {
		t.Error("unknown algorithm must be rejected")
	}
}

// TestRunSpecKeyMaterial verifies which fields enter the canonical key:
// algorithm, seed and restarts do; timeout and workers — execution knobs
// that never change the consensus — do not.
func TestRunSpecKeyMaterial(t *testing.T) {
	zero, one := int64(0), int64(1)
	base := specKeyOf(t, RunSpec{Algorithm: "BioConsert"})
	if len(base) != 32 {
		t.Fatalf("key %q: want 32 hex chars, like Dataset.Hash", base)
	}

	same := []RunSpec{
		{Algorithm: "BioConsert", Seed: &zero},                // explicit default seed
		{Algorithm: "bioconsert"},                             // capitalization
		{Algorithm: "BioConsert", TimeoutMS: 5000},            // execution-only
		{Algorithm: "BioConsert", Workers: 8},                 // execution-only
		{Algorithm: "BioConsert", Restarts: -1},               // clamps to default
		{Algorithm: "BioConsert", TimeoutMS: 100, Workers: 2}, // both at once
	}
	for i, sp := range same {
		if k := specKeyOf(t, sp); k != base {
			t.Errorf("spec %d: key %s, want %s (same deterministic run)", i, k, base)
		}
	}

	diff := []RunSpec{
		{Algorithm: "KwikSort"},
		{Algorithm: "BioConsert", Seed: &one},
		{Algorithm: "BioConsert", Restarts: 4},
	}
	for i, sp := range diff {
		if k := specKeyOf(t, sp); k == base {
			t.Errorf("spec %d: key collides with base; result-determining field ignored", i)
		}
	}

	doc, err := RunSpec{Algorithm: "BioConsert", Workers: 3}.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(doc) != `{"algorithm":"BioConsert","seed":0,"restarts":0}` {
		t.Errorf("canonical JSON drifted: %s", doc)
	}
}

// TestRunSpecCrossSurfaceEquality is the satellite bugfix's regression
// test: a run described by a RunSpec and the same run described by
// functional options produce identical results, including at the
// previously drifting default — the CLI used to skip WithSeed when the
// flag was 0, while the server always sent one.
func TestRunSpecCrossSurfaceEquality(t *testing.T) {
	d := sessionTestDataset(t, 6, 18, 11)
	ctx := context.Background()
	seed := int64(42)

	viaSpec := newTestSession(t, d)
	r1, err := viaSpec.RunSpec(ctx, RunSpec{Algorithm: "BioConsert", Seed: &seed, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	viaOpts := newTestSession(t, d)
	r2, err := viaOpts.Run(ctx, "BioConsert", WithSeed(seed), WithRestarts(3))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Consensus.Equal(r2.Consensus) || r1.Score != r2.Score {
		t.Errorf("spec and options disagree: score %d vs %d", r1.Score, r2.Score)
	}

	// The default seed: nil seed in a spec ≡ no WithSeed ≡ WithSeed(0).
	r3, err := newTestSession(t, d).RunSpec(ctx, RunSpec{Algorithm: "KwikSort"})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := newTestSession(t, d).Run(ctx, "KwikSort", WithSeed(0))
	if err != nil {
		t.Fatal(err)
	}
	r5, err := newTestSession(t, d).Run(ctx, "KwikSort")
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Consensus.Equal(r4.Consensus) || !r3.Consensus.Equal(r5.Consensus) {
		t.Error("nil spec seed, WithSeed(0) and an unset seed must be the same run")
	}
}

// TestWarmStartDeterminism pins the property the consensus cache's
// warm-hint path relies on: re-running BioConsert warm-started from its
// own cold consensus applies zero moves and reproduces the cold result
// exactly (the consensus is locally optimal, so the descent is a no-op).
func TestWarmStartDeterminism(t *testing.T) {
	d := sessionTestDataset(t, 7, 24, 5)
	ctx := context.Background()
	s := newTestSession(t, d, WithWorkers(1))

	cold, err := s.RunSpec(ctx, RunSpec{Algorithm: "BioConsert"})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.WarmStart {
		t.Fatal("cold run reported warm_start")
	}
	warm, err := s.RunSpec(ctx, RunSpec{Algorithm: "BioConsert"}, WithWarmStart(cold.Consensus))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.WarmStart {
		t.Fatal("warm run did not report warm_start")
	}
	if !warm.Consensus.Equal(cold.Consensus) || warm.Score != cold.Score {
		t.Errorf("warm restart from the cold consensus must reproduce it: score %d vs %d",
			warm.Score, cold.Score)
	}
	if warm.Stats.Moves != 0 {
		t.Errorf("descent from a local optimum applied %d moves, want 0", warm.Stats.Moves)
	}
}

// TestWarmStartInvalidRankingIgnored pins the cold policy for a warm
// ranking that has the universe's length and no element outside it but is
// not a bucket order of the universe: element 0 appears twice and element
// 1 is missing. Both warm-startable algorithms must ignore it and solve
// cold, not return it as the consensus.
func TestWarmStartInvalidRankingIgnored(t *testing.T) {
	d := sessionTestDataset(t, 5, 4, 3)
	ctx := context.Background()
	s := newTestSession(t, d, WithWorkers(1))
	bad := &Ranking{Buckets: [][]int{{0}, {0}, {2}, {3}}}
	for _, name := range []string{"BioConsert", "Anneal"} {
		cold, err := s.Run(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := s.Run(ctx, name, WithWarmStart(bad))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if warm.Stats.WarmStart {
			t.Errorf("%s consumed the invalid warm ranking %v", name, bad)
		}
		if err := warm.Consensus.Validate(); err != nil || warm.Consensus.Len() != d.N {
			t.Errorf("%s returned %v, not a bucket order of all %d elements (%v)", name, warm.Consensus, d.N, err)
		}
		if !warm.Consensus.Equal(cold.Consensus) || warm.Score != cold.Score {
			t.Errorf("%s: warm-started run %v (score %d) differs from the cold run %v (score %d)",
				name, warm.Consensus, warm.Score, cold.Consensus, cold.Score)
		}
	}
}

// TestWarmStartFewerMovesAfterDelta is the PATCH re-solve scenario: after
// a small dataset mutation, warm-starting from the pre-delta consensus
// must converge in fewer moves than a cold multi-restart solve while
// matching its final score.
func TestWarmStartFewerMovesAfterDelta(t *testing.T) {
	// Deterministic fixtures (fixed dataset seeds, one worker) on which the
	// warm solve matches the cold score exactly. Warm starts trade the
	// multi-seed restart pool for one near-optimal seed, so score equality
	// is data-dependent in general; the moves reduction is the mechanism
	// and holds whenever the delta leaves the old consensus near-optimal.
	// The Markov walks are the paper's high-similarity regime, where every
	// restart drains to the same optimum; the added voter walks as far
	// from the same center.
	rng := rand.New(rand.NewSource(7))
	center := gen.UniformRanking(rng, 60)
	walker := gen.NewWalker(center, 60)
	walker.Walk(rng, 60)
	ctx := context.Background()
	spec := RunSpec{Algorithm: "BioConsert"}
	for _, c := range []struct {
		name  string
		d     *Dataset
		extra *Ranking
	}{
		{"uniform", sessionTestDataset(t, 8, 30, 2), sessionTestDataset(t, 1, 30, 102).Rankings[0]},
		{"markov", gen.MarkovDataset(rng, center, 60, 12, 60), walker.Ranking()},
	} {
		s := newTestSession(t, c.d, WithWorkers(1))
		before, err := s.RunSpec(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddRanking(c.extra); err != nil {
			t.Fatal(err)
		}

		cold, err := s.RunSpec(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := s.RunSpec(ctx, spec, WithWarmStart(before.Consensus))
		if err != nil {
			t.Fatal(err)
		}
		if warm.Score > cold.Score {
			t.Errorf("%s: warm start landed on a worse consensus: %d vs cold %d", c.name, warm.Score, cold.Score)
		}
		if warm.Stats.Moves >= cold.Stats.Moves {
			t.Errorf("%s: warm start applied %d moves, cold %d: expected strictly fewer (one seed, near-optimal start)",
				c.name, warm.Stats.Moves, cold.Stats.Moves)
		}
		// An ignorer of warm starts must not claim one.
		borda, err := s.RunSpec(ctx, RunSpec{Algorithm: "BordaCount"}, WithWarmStart(before.Consensus))
		if err != nil {
			t.Fatal(err)
		}
		if borda.Stats.WarmStart {
			t.Errorf("%s: BordaCount reported warm_start but cannot consume one", c.name)
		}
	}
	if CanWarmStart("BordaCount") || !CanWarmStart("BioConsert") || !CanWarmStart("Anneal") {
		t.Error("CanWarmStart misreports the warm-startable set")
	}
}
