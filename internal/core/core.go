// Package core defines the Aggregator contract every rank aggregation
// algorithm implements, and a registry mapping algorithm names (as used in
// the paper's tables) to constructors.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// Aggregator computes a consensus ranking (with or without ties) for a
// dataset of input rankings, aiming to minimize the generalized Kemeny
// score. Implementations are safe for concurrent use unless documented
// otherwise.
type Aggregator interface {
	// Name returns the algorithm's display name, matching the paper's
	// terminology (e.g. "BioConsert", "KwikSortMin", "MEDRank(0.5)").
	Name() string
	// Aggregate returns a consensus ranking over the dataset's universe.
	// The dataset must be complete (every ranking over the same elements);
	// ErrIncomplete is returned otherwise. Aggregate must not mutate d.
	Aggregate(d *rankings.Dataset) (*rankings.Ranking, error)
}

// ExactAggregator is implemented by exact methods that can prove optimality.
type ExactAggregator interface {
	Aggregator
	// AggregateExact additionally reports whether the returned consensus was
	// proved optimal (false when a time or size limit stopped the search and
	// the best incumbent was returned).
	AggregateExact(d *rankings.Dataset) (*rankings.Ranking, bool, error)
}

// PairsAggregator is implemented by algorithms that can reuse a prebuilt
// pair matrix (kendall.Pairs) instead of recomputing it from the dataset.
// Building the matrix costs O(m·n²) — the dominant term for most of the
// paper's algorithms — so callers evaluating several algorithms on one
// dataset should build it once and share it (see AggregateWithPairs).
type PairsAggregator interface {
	Aggregator
	// AggregateWithPairs is Aggregate with a prebuilt pair matrix. p must be
	// the pair matrix of d (a nil p is computed from d). The matrix is only
	// read, never written: one matrix may serve concurrent calls.
	AggregateWithPairs(d *rankings.Dataset, p *kendall.Pairs) (*rankings.Ranking, error)
}

// ExactPairsAggregator is an ExactAggregator that can reuse a prebuilt pair
// matrix.
type ExactPairsAggregator interface {
	ExactAggregator
	// AggregateExactWithPairs is AggregateExact with a prebuilt pair matrix
	// (same contract as PairsAggregator.AggregateWithPairs).
	AggregateExactWithPairs(d *rankings.Dataset, p *kendall.Pairs) (*rankings.Ranking, bool, error)
}

// MatrixFreeAggregator marks the approximation tier (internal/approx):
// algorithms whose whole run never builds or reads an O(n²) pair matrix, so
// callers holding one universe too large for the matrix tier can still
// aggregate. The marker is a promise about resources, not a capability
// method — matrix-free algorithms also accept incomplete datasets (the
// unified virtual-last-bucket model) where Aggregate's usual contract
// demands completeness.
type MatrixFreeAggregator interface {
	Aggregator
	// MatrixFree is the marker method; implementations are empty.
	MatrixFree()
}

// IsMatrixFree reports whether a belongs to the matrix-free approximation
// tier. Session and server admission routing branch on it: no pair-matrix
// build, no WithPairs, scores computed ranking-by-ranking instead.
func IsMatrixFree(a Aggregator) bool {
	_, ok := a.(MatrixFreeAggregator)
	return ok
}

// AggregateWithPairs runs a on d, handing it the prebuilt pair matrix p when
// the algorithm can consume one; algorithms without pair-matrix support (or
// a nil p) fall back to plain Aggregate. p, when non-nil, must be the pair
// matrix of d.
func AggregateWithPairs(a Aggregator, d *rankings.Dataset, p *kendall.Pairs) (*rankings.Ranking, error) {
	if err := checkPairs(p); err != nil {
		return nil, err
	}
	if pa, ok := a.(PairsAggregator); ok && p != nil {
		return pa.AggregateWithPairs(d, p)
	}
	return a.Aggregate(d)
}

// AggregateExactWithPairs is AggregateWithPairs for exact methods.
func AggregateExactWithPairs(a ExactAggregator, d *rankings.Dataset, p *kendall.Pairs) (*rankings.Ranking, bool, error) {
	if pa, ok := a.(ExactPairsAggregator); ok && p != nil {
		return pa.AggregateExactWithPairs(d, p)
	}
	return a.AggregateExact(d)
}

// ErrIncomplete is returned when a dataset is not normalized: aggregation
// algorithms require all rankings to cover the same elements (apply a
// process from package normalize first).
var ErrIncomplete = errors.New("core: dataset rankings do not cover the same elements (normalize first)")

// checkPairs rejects a caller-supplied pair matrix built from an
// incomplete dataset with ErrIncomplete. Every aggregator takes complete
// datasets only (CheckInput), so such a matrix cannot be the matrix of the
// dataset it came with, and the local searches' scans assume a complete
// one.
func checkPairs(p *kendall.Pairs) error {
	if p != nil && !p.Complete {
		return ErrIncomplete
	}
	return nil
}

// ErrEmpty is returned for datasets with no rankings or no elements.
var ErrEmpty = errors.New("core: empty dataset")

// CheckInput validates a dataset for aggregation.
func CheckInput(d *rankings.Dataset) error {
	if d == nil || d.M() == 0 || d.N == 0 {
		return ErrEmpty
	}
	if err := d.Validate(); err != nil {
		return err
	}
	if !d.Complete() {
		return ErrIncomplete
	}
	return nil
}

var (
	regMu    sync.RWMutex
	registry = map[string]func() Aggregator{}
)

// Register adds a named constructor. It panics on duplicates (registration
// happens at init time).
func Register(name string, factory func() Aggregator) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: duplicate aggregator %q", name))
	}
	registry[name] = factory
}

// New constructs a registered aggregator by name. Lookup is exact first,
// then case-insensitive, so a spec written as "bioconsert" resolves to the
// canonical "BioConsert" (RunSpec.Normalize reads the canonical spelling
// back from the aggregator's Name).
func New(name string) (Aggregator, error) {
	regMu.RLock()
	f, ok := registry[name]
	if !ok {
		for n, rf := range registry {
			if strings.EqualFold(n, name) {
				f, ok = rf, true
				break
			}
		}
	}
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown aggregator %q (known: %v)", name, Names())
	}
	return f(), nil
}

// Names lists registered aggregator names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
