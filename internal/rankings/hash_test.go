package rankings

import (
	"runtime"
	"testing"
)

// TestHashGolden pins Dataset.Hash on fixed datasets. The hash names
// persisted datasets (store directories, consensus-cache keys, client
// handles), so any change to its byte stream orphans every stored handle:
// these values must never move.
func TestHashGolden(t *testing.T) {
	r := func(bs ...[]int) *Ranking { return &Ranking{Buckets: bs} }
	b := func(e ...int) []int { return e }
	wide := make([]int, 50)
	for i := range wide {
		wide[i] = 49 - i
	}
	cases := []struct {
		name string
		d    *Dataset
		want string
	}{
		{"section 2.2 example", &Dataset{N: 4, Rankings: []*Ranking{
			r(b(0), b(3), b(1, 2)), r(b(0), b(1, 2), b(3)), r(b(3), b(0, 2), b(1))}},
			"8ab44e5492de4bf3ee5c659d69773a60"},
		{"same, buckets listed in another order", &Dataset{N: 4, Rankings: []*Ranking{
			r(b(0), b(3), b(2, 1)), r(b(0), b(2, 1), b(3)), r(b(3), b(2, 0), b(1))}},
			"8ab44e5492de4bf3ee5c659d69773a60"},
		{"top-k lists", &Dataset{N: 10, Rankings: []*Ranking{
			FromPermutation([]int{3, 1, 4}), FromPermutation([]int{1, 5}), FromPermutation([]int{9, 2, 6, 5})}},
			"45dd110939e2b17c2154cdb42251dcb1"},
		{"empty", &Dataset{N: 0}, "374708fff7719dd5979ec875d56cd228"},
		{"one wide bucket", &Dataset{N: 50, Rankings: []*Ranking{r(wide)}},
			"2b5b8aa230f761f562a9c37195279dad"},
		{"large universe, short ranking", &Dataset{N: 1 << 20, Rankings: []*Ranking{r(b(7), b(1<<19, 3))}},
			"1521097f6809f0033ba4f33fb0582ac6"},
	}
	for _, tc := range cases {
		if got := tc.d.Hash(); got != tc.want {
			t.Errorf("%s: Hash = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestHashIgnoresDeclaredUniverse: hashing costs memory in the rankings'
// size, not in the declared universe size — a 1-element dataset declaring
// 10¹¹ elements must hash without allocating for them.
func TestHashIgnoresDeclaredUniverse(t *testing.T) {
	d := &Dataset{N: 100_000_000_000, Rankings: []*Ranking{{Buckets: [][]int{{0}}}}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.Hash()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("Hash allocated %d bytes for a 1-element dataset", grew)
	}
}
