package eval

import (
	"context"
	"testing"
	"time"

	"rankagg/internal/core"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

func TestAutoExplainsItsChoice(t *testing.T) {
	ds := smallDatasets(91, 1, 5, 10)[0]
	a := &Auto{}
	r, rec, err := a.AggregateExplained(ds)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Algorithm != "BioConsert" {
		t.Errorf("default-priorities recommendation = %s, want BioConsert", rec.Algorithm)
	}
	if r.Len() != ds.N {
		t.Errorf("consensus covers %d of %d", r.Len(), ds.N)
	}
}

func TestAutoNeedOptimalUsesExact(t *testing.T) {
	ds := smallDatasets(92, 1, 4, 7)[0]
	a := &Auto{NeedOptimal: true, ExactBudget: 30 * time.Second}
	r, rec, err := a.AggregateExplained(ds)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Algorithm != "ExactAlgorithm" {
		t.Errorf("recommendation = %s, want ExactAlgorithm at n=7", rec.Algorithm)
	}
	// Verify true optimality against the reference solver.
	ref, err := core.Run(context.Background(), referenceExact(10, 30*time.Second), ds, core.RunOptions{})
	if err != nil || !ref.Proved {
		t.Fatalf("reference failed: %v %v", ref, err)
	}
	if kendall.Score(r, ds) != kendall.Score(ref.Consensus, ds) {
		t.Errorf("Auto(NeedOptimal) returned non-optimal consensus")
	}
}

func TestAutoTimeCriticalPicksPositional(t *testing.T) {
	ds := smallDatasets(93, 1, 5, 12)[0]
	a := &Auto{TimeCritical: true}
	_, rec, err := a.AggregateExplained(ds)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Algorithm != "BordaCount" && rec.Algorithm != "MEDRank(0.5)" {
		t.Errorf("time-critical recommendation = %s", rec.Algorithm)
	}
}

func TestAutoRejectsBadInput(t *testing.T) {
	u := rankings.NewUniverse()
	incomplete := rankings.NewDataset(3,
		rankings.MustParse("A>B", u),
		rankings.MustParse("C", u),
	)
	if _, err := aggregate(&Auto{}, incomplete, nil); err == nil {
		t.Error("Auto accepted an incomplete dataset")
	}
}
