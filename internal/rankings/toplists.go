package rankings

import "fmt"

// TopListsWire is the wire form of a top-k list collection: each list is an
// ordered best-to-worst array of element IDs — a strict prefix of a
// permutation, the "top-k list" model of incomplete rankings. It is the
// compact input shape of the matrix-free approximation tier: a million-user
// service posts each user's top 10, not a million-element bucket order.
//
// Decode returns an incomplete dataset — each list becomes a ranking of
// singleton buckets over just its own elements — which the approximation
// tier aggregates directly (absent elements fall into the unified model's
// virtual last bucket); the exact tier would demand normalization first.
type TopListsWire struct {
	// N is the universe size; 0 infers it from the largest element ID and
	// the name count, like DatasetWire.
	N int `json:"n,omitempty"`
	// Names optionally names the universe (index = element ID).
	Names []string `json:"names,omitempty"`
	// TopLists holds one ID list per voter, best first, no duplicates
	// within a list.
	TopLists [][]int `json:"toplists"`
}

// Decode validates the wire form and returns the (typically incomplete)
// dataset, plus the universe when the payload carried names (nil
// otherwise).
func (w *TopListsWire) Decode() (*Dataset, *Universe, error) {
	if len(w.TopLists) == 0 {
		return nil, nil, ErrNoRankings
	}
	rks := make([]*Ranking, len(w.TopLists))
	for i, list := range w.TopLists {
		if len(list) == 0 {
			return nil, nil, emptyTopList(i)
		}
		rks[i] = FromPermutation(list)
		if err := rks[i].Validate(); err != nil {
			return nil, nil, topListError(i, err)
		}
	}
	return WireDataset(w.N, w.Names, rks, inferMax(w.N, rks), false, true)
}

func emptyTopList(i int) error { return fmt.Errorf("rankings: top-list %d is empty", i) }

func topListError(i int, err error) error { return fmt.Errorf("rankings: top-list %d: %w", i, err) }
