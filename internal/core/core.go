// Package core defines the Aggregator contract every rank aggregation
// algorithm implements, Run — the one way to run an Aggregator, which
// validates the input and applies the run's time limit once for every
// algorithm — and a registry mapping algorithm names (as used in the
// paper's tables) to constructors. What sets algorithms apart beyond
// AggregateCtx is declared by marker interfaces: ExactAggregator (proves
// optimality), MatrixFreeAggregator (never builds a pair matrix) and
// WarmStartable (consumes RunOptions.WarmStart).
package core

import (
	"context"
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
	// AggregateCtx runs the algorithm on d. It is called through Run only,
	// which has rejected a cancelled ctx, validated d (CheckInput, unless
	// the algorithm is matrix-free) and folded opts.TimeLimit into ctx, so
	// a body starts with its own work. AggregateCtx must not mutate d, and
	// it reads opts.Pairs (the pair matrix of d) instead of building one
	// when it is set. The context contract:
	//
	//   - ctx cancelled (context.Canceled): return (nil, ctx.Err()) promptly.
	//   - ctx deadline expired: return the best incumbent with DeadlineHit
	//     and a nil error, matching the paper's time-limit policy of keeping
	//     the best solution found.
	//
	// Long-running searches poll ctx at a bounded interval; fast
	// single-pass algorithms may ignore it.
	AggregateCtx(ctx context.Context, d *rankings.Dataset, opts RunOptions) (*RunResult, error)
}

// ExactAggregator marks exact methods: a run that completes proves its
// consensus optimal and reports RunResult.Proved.
type ExactAggregator interface {
	Aggregator
	// Exact is the marker method; implementations are empty.
	Exact()
}

// MatrixFreeAggregator marks the approximation tier (internal/approx):
// algorithms whose whole run never builds or reads an O(n²) pair matrix, so
// callers holding one universe too large for the matrix tier can still
// aggregate. The marker is a promise about resources, not a capability
// method — matrix-free algorithms also accept incomplete datasets (the
// unified virtual-last-bucket model), so Run leaves their input checks to
// them.
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
