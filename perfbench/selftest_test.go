package main

import (
	"math/rand"
	"testing"

	"rankagg"
	"rankagg/internal/gen"
	"rankagg/internal/rankings"
)

// TestTinyWorkloads runs every workload end to end at a tiny size, with and
// without the traced replay: every op must succeed and every check pass.
func TestTinyWorkloads(t *testing.T) {
	for _, wl := range workloads(true) {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: wl.name, seed: 7, seconds: 0.5, trace: trace, tiny: true, dataRoot: t.TempDir()}
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !out.correct || out.failed != 0 || out.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d failed: %v", wl.name, trace, out.failed, out.attempted, out.failures)
			}
		}
	}
}

// TestPlanRepeats checks that a seed fixes the traffic: two plans of one
// seed have the same digest, another seed changes it.
func TestPlanRepeats(t *testing.T) {
	for _, wl := range workloads(true) {
		a := newPlan(wl, 3, 200).digest
		if b := newPlan(wl, 3, 200).digest; a != b {
			t.Errorf("%s: seed 3 gave digests %s and %s", wl.name, a, b)
		}
		if c := newPlan(wl, 4, 200).digest; c == a {
			t.Errorf("%s: seeds 3 and 4 gave the same digest", wl.name)
		}
	}
}

// TestLowerBoundPaperExample is the yardstick's self-test on the paper's
// §2.2 example.
func TestLowerBoundPaperExample(t *testing.T) {
	if err := selfTestBound(); err != nil {
		t.Fatal(err)
	}
}

// TestScoreMatchesRankagg checks the checks' scorer against rankagg.Score
// on complete rankings with ties and on top-k lists.
func TestScoreMatchesRankagg(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := newTopListFamily(rng, 80, 10, 1)
	lists := rankings.NewDataset(80)
	for i := 0; i < 20; i++ {
		lists = applyDelta(lists, []*rankings.Ranking{f.ranking(rng)}, nil)
	}
	ties := gen.UniformDataset(rng, 7, 30)
	for _, d := range []*rankings.Dataset{lists, ties} {
		c := gen.UniformRanking(rng, d.N)
		if got, want := score(c, d), rankagg.Score(c, d); got != want {
			t.Errorf("n=%d: score %d, rankagg.Score %d", d.N, got, want)
		}
	}
}

// TestLowerBoundSparse checks the top-k list form of the bound against the
// dense one, from scratch and kept across states that add lists and, from
// the tenth on, also remove one.
func TestLowerBoundSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := newTopListFamily(rng, 60, 12, 1)
	var pc pairCounts
	d := rankings.NewDataset(60)
	for i := 0; i < 30; i++ {
		var remove []*rankings.Ranking
		if i >= 10 {
			remove = []*rankings.Ranking{d.Rankings[rng.Intn(d.M())]}
		}
		d = applyDelta(d, []*rankings.Ranking{f.ranking(rng)}, remove)
		grown := pc.bound(d)
		var fresh pairCounts
		if dense, sparse := lowerBound(d), fresh.bound(d); dense != sparse || grown != dense {
			t.Fatalf("after %d lists: dense %d, sparse %d, grown %d", i+1, dense, sparse, grown)
		}
	}
}

// TestProbeAllocatesNothing guards the speed probe's premise: with no
// allocation, no GC work lands in its timing.
func TestProbeAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(20, func() { probe() }); n != 0 {
		t.Errorf("probe allocates %v times per run", n)
	}
	if d := probe(); d <= 0 {
		t.Errorf("probe took %v of CPU time", d)
	}
}
