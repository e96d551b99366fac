package core_test

import (
	"testing"

	"rankagg/internal/core"
	"rankagg/internal/rankings"

	_ "rankagg/internal/algo" // register the algorithm set
)

func TestCheckInput(t *testing.T) {
	u := rankings.NewUniverse()
	good := rankings.FromRankings(
		rankings.MustParse("A>B", u),
		rankings.MustParse("B>A", u),
	)
	if err := core.CheckInput(good); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	if err := core.CheckInput(nil); err != core.ErrEmpty {
		t.Errorf("nil dataset: %v, want ErrEmpty", err)
	}
	if err := core.CheckInput(rankings.NewDataset(0)); err != core.ErrEmpty {
		t.Errorf("empty dataset: %v, want ErrEmpty", err)
	}
	incomplete := rankings.FromRankings(
		rankings.MustParse("A>B", u),
		rankings.MustParse("C", u),
	)
	if err := core.CheckInput(incomplete); err != core.ErrIncomplete {
		t.Errorf("incomplete dataset: %v, want ErrIncomplete", err)
	}
	invalid := rankings.NewDataset(1, rankings.New([]int{0}, []int{0}))
	if err := core.CheckInput(invalid); err == nil {
		t.Error("dataset with duplicate element accepted")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	core.Register("BioConsert", nil) // already registered by package algo
}

func TestNamesSortedAndNewWorks(t *testing.T) {
	names := core.Names()
	if len(names) < 20 {
		t.Fatalf("expected a rich registry, got %d entries", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %q before %q", names[i-1], names[i])
		}
	}
	a, err := core.New("BioConsert")
	if err != nil || a.Name() != "BioConsert" {
		t.Errorf("New(BioConsert) = %v, %v", a, err)
	}
}

// TestIsFullRanking: a full ranking is a valid bucket order of exactly the
// universe's elements; length and range checks alone let a repeated
// element stand in for a missing one.
func TestIsFullRanking(t *testing.T) {
	for _, c := range []struct {
		name string
		w    *rankings.Ranking
		want bool
	}{
		{"valid", rankings.New([]int{1}, []int{0, 3}, []int{2}), true},
		{"nil", nil, false},
		{"missing element", rankings.New([]int{1}, []int{0, 3}), false},
		{"outside the universe", rankings.New([]int{1}, []int{0, 4}, []int{2}), false},
		{"repeated element", rankings.New([]int{0}, []int{0}, []int{2}, []int{3}), false},
		{"empty bucket", &rankings.Ranking{Buckets: [][]int{{1}, {}, {0, 3}, {2}}}, false},
		{"negative element", rankings.New([]int{-1}, []int{1, 3}, []int{2}), false},
	} {
		if got := core.IsFullRanking(c.w, 4); got != c.want {
			t.Errorf("%s: IsFullRanking(%v, 4) = %v, want %v", c.name, c.w, got, c.want)
		}
	}
}
