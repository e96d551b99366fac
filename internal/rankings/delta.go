package rankings

import (
	"errors"
	"fmt"
)

// Sentinel errors of the delta rule, matchable with errors.Is (package
// rankagg re-exports both).
var (
	// ErrRankingNotFound rejects the removal of a ranking the dataset does
	// not hold.
	ErrRankingNotFound = errors.New("rankings: ranking not found in dataset")
	// ErrDatasetEmptied rejects a delta that would leave the dataset with
	// no rankings at all.
	ErrDatasetEmptied = errors.New("rankings: delta would leave the dataset empty")
)

var errNilDelta = errors.New("rankings: nil ranking in delta")

// ApplyDelta is the delta rule every mutable holder of a dataset shares —
// the exact and the matrix-free session, the store's write-ahead log and
// its replay — so they cannot disagree on what a delta means or on the
// content hash it leads to. It checks one atomic delta against d and
// returns the next dataset, plus removed: d's own rankings that the
// removals matched, in d's order, which a holder of incremental state
// folds out. d is never modified, and on any error nothing is returned.
//
// The rule:
//   - every add is a valid, non-empty ranking inside d's universe; a
//     complete dataset takes only adds that cover the whole universe, so
//     it stays complete, while a toplists (incomplete) dataset takes
//     partial ones;
//   - each removal matches one not yet matched ranking of d by bucket-order
//     equality (Ranking.Equal), or the delta fails with ErrRankingNotFound;
//   - a delta that would leave no ranking fails with ErrDatasetEmptied;
//   - the next dataset keeps d's unmatched rankings in order, then appends
//     add in order.
func ApplyDelta(d *Dataset, add, remove []*Ranking) (next *Dataset, removed []*Ranking, err error) {
	complete := d.Complete()
	for _, r := range add {
		if r == nil {
			return nil, nil, errNilDelta
		}
		if err := r.Validate(); err != nil {
			return nil, nil, err
		}
		if r.Len() == 0 {
			return nil, nil, errors.New("rankings: empty ranking in delta")
		}
		if r.MaxElement() >= d.N {
			return nil, nil, fmt.Errorf("rankings: added ranking %s exceeds the dataset universe of %d elements", r, d.N)
		}
		if complete && r.Len() != d.N {
			return nil, nil, fmt.Errorf("rankings: added ranking %s must cover the complete dataset's universe of %d elements (partial adds apply only to toplists datasets)", r, d.N)
		}
	}
	dropped := make([]bool, len(d.Rankings))
	for _, r := range remove {
		if r == nil {
			return nil, nil, errNilDelta
		}
		found := -1
		for i, have := range d.Rankings {
			if !dropped[i] && have.Equal(r) {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, nil, fmt.Errorf("%w: %s", ErrRankingNotFound, r)
		}
		dropped[found] = true
	}
	if len(d.Rankings)-len(remove)+len(add) == 0 {
		return nil, nil, ErrDatasetEmptied
	}
	rks := make([]*Ranking, 0, len(d.Rankings)-len(remove)+len(add))
	removed = make([]*Ranking, 0, len(remove))
	for i, r := range d.Rankings {
		if dropped[i] {
			removed = append(removed, r)
		} else {
			rks = append(rks, r)
		}
	}
	return &Dataset{N: d.N, Rankings: append(rks, add...)}, removed, nil
}
