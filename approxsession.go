package rankagg

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rankagg/internal/approx"
	"rankagg/internal/core"
	"rankagg/internal/kendall"
)

// ApproxSession is the approximation tier's counterpart to Session: the
// stateful entry point for aggregating one dataset with the matrix-free
// algorithms (lehmer, avgrank, scores). Where Session owns the O(n²) pair
// matrix, an ApproxSession owns the delta-maintainable aggregation state —
// per-element Lehmer coordinate multisets (approx.LehmerState) and score
// totals (approx.ScoreState), built lazily per algorithm family on the
// first Run that needs them — plus a warm score per algorithm, so a re-run
// after a small delta pays the O(n log n) consensus decode, plus one
// kendall.Score (an O(n) positions pass and O(Σ L log L) over the
// rankings) only when the consensus moved, instead of a full rebuild.
//
// Unlike Session, the dataset may be INCOMPLETE: top-k lists aggregate
// as-is under the unified model (absent elements in the virtual last
// bucket), and ApplyDelta accepts partial rankings as long as the dataset
// is a toplists one. That is the point of the type — it is what lets
// PATCH /v1/datasets/{hash} work on approx-routed and toplists datasets.
//
// An ApproxSession is safe for concurrent use, but runs SERIALIZE: the
// incremental state is mutated in place (multiset inserts, score
// accumulation), so one mutex covers state builds, consensus reads and
// deltas alike. Approx runs are cheap enough — no matrix build, no search —
// that serialization is the right trade against copy-on-write state clones.
type ApproxSession struct {
	defaults runConfig

	mu      sync.Mutex
	d       *Dataset // current dataset; replaced on mutation, never modified
	version uint64
	deltas  int
	hash    string

	lehmer *approx.LehmerState
	scores map[string]*approx.ScoreState // keyed by algorithm name (avgrank, scores)
	warm   map[string]*approxWarm        // last consensus + exact score per algorithm
}

// approxWarm caches one algorithm's last consensus and its exact
// generalized Kemeny score. ApplyDelta keeps the score exact under
// mutation — ±kendall.Dist per delta ranking against the cached consensus —
// so a later Run whose fresh consensus equals the cached one reuses the
// score without touching the dataset at all.
type approxWarm struct {
	consensus *Ranking
	score     int64
}

// NewApproxSession validates the dataset for matrix-free aggregation
// (approx.CheckInput — incomplete datasets are accepted) and wraps it in an
// ApproxSession. Options become session-wide defaults for every Run;
// WithPairs is rejected with ErrMatrixFreePairs — there is no matrix
// anywhere in this tier.
func NewApproxSession(d *Dataset, opts ...Option) (*ApproxSession, error) {
	if err := approx.CheckInput(d); err != nil {
		return nil, err
	}
	s := &ApproxSession{
		d:      d,
		scores: make(map[string]*approx.ScoreState),
		warm:   make(map[string]*approxWarm),
	}
	for _, o := range opts {
		o(&s.defaults)
	}
	if s.defaults.pairs != nil {
		return nil, fmt.Errorf("%w: approx sessions never read pair counts; drop the WithPairs option", ErrMatrixFreePairs)
	}
	return s, nil
}

// Dataset returns the session's current dataset: an immutable snapshot that
// mutation methods replace rather than modify. It must not be mutated by
// the caller.
func (s *ApproxSession) Dataset() *Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d
}

// Hash returns the current dataset's content hash, computed lazily and
// cached until the next mutation rotates it — the same contract as
// Session.Hash, so serving-layer caches key approx sessions identically.
func (s *ApproxSession) Hash() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hash == "" {
		s.hash = s.d.Hash()
	}
	return s.hash
}

// Version returns the session's mutation version: +1 per ranking added or
// removed, starting from 0.
func (s *ApproxSession) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// DeltaCount returns how many delta mutations (ApplyDelta calls, which
// AddRanking/RemoveRanking wrap) the session has absorbed. The serving
// layer's metrics and tests read it to assert the incremental path ran
// instead of a rebuild.
func (s *ApproxSession) DeltaCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deltas
}

// StateBytes approximates the session's resident size — dataset plus
// whatever incremental state has been built — for byte-budgeted caches
// (the approx tier's analogue of Session.MatrixBytes). It grows when a
// first Run builds a state and shrinks when a delta drops one.
func (s *ApproxSession) StateBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := int64(128)
	for _, r := range s.d.Rankings {
		b += 48 + 16*int64(r.Len())
	}
	if s.lehmer != nil {
		b += s.lehmer.Bytes()
	}
	for _, st := range s.scores {
		b += st.Bytes()
	}
	for _, w := range s.warm {
		b += 32 + 16*int64(w.consensus.Len())
	}
	return b
}

// AddRanking appends r to the session's dataset, folding it into every
// built aggregation state in O(L log L) — no rebuild. r may be partial
// when the dataset is incomplete (a toplists dataset absorbs more top-k
// lists); on a complete dataset it must cover the whole universe, exactly
// like Session.AddRanking.
func (s *ApproxSession) AddRanking(r *Ranking) error {
	return s.ApplyDelta([]*Ranking{r}, nil)
}

// RemoveRanking removes the first ranking of the dataset that is
// bucket-order equal to r (Ranking.Equal), unfolding it from every built
// state, returning ErrRankingNotFound when there is none and
// ErrDatasetEmptied when it is the last one.
func (s *ApproxSession) RemoveRanking(r *Ranking) error {
	return s.ApplyDelta(nil, []*Ranking{r})
}

// ApplyDelta mutates the session's dataset atomically: every ranking of
// remove is matched (by Ranking.Equal, each dataset ranking consumed at
// most once) and dropped, then every ranking of add is appended, in order.
// Validation happens up front — on any error nothing is changed.
//
// Instead of Session's O(n²)-per-ranking matrix delta, each ranking here is
// an O(L·(log L + log m)) update of the built states: a multiset
// insert/delete per explicit Lehmer coordinate (approx.LehmerState) and a
// signed O(L) accumulation of the score totals (approx.ScoreState). States
// not yet built cost nothing — the next Run builds from the mutated
// dataset. Warm scores stay exact: each cached consensus's score shifts by
// ±kendall.Dist(consensus, r) per delta ranking, so a consensus the delta
// does not move re-scores for free. The content hash rotates, exactly as
// for Session.
func (s *ApproxSession) ApplyDelta(add, remove []*Ranking) error {
	if len(add) == 0 && len(remove) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	complete := s.d.Complete()
	for _, r := range add {
		if r == nil {
			return fmt.Errorf("rankagg: nil ranking in delta")
		}
		if err := r.Validate(); err != nil {
			return err
		}
		if r.Len() == 0 {
			return fmt.Errorf("rankagg: empty ranking in delta")
		}
		if r.MaxElement() >= s.d.N {
			return fmt.Errorf("rankagg: added ranking %s exceeds the session universe of %d elements", r, s.d.N)
		}
		if complete && r.Len() != s.d.N {
			return fmt.Errorf("rankagg: added ranking %s must cover the complete dataset's universe of %d elements (partial adds apply only to toplists datasets)",
				r, s.d.N)
		}
	}
	dropped := make([]bool, len(s.d.Rankings))
	for _, r := range remove {
		if r == nil {
			return fmt.Errorf("rankagg: nil ranking in delta")
		}
		found := -1
		for i, have := range s.d.Rankings {
			if !dropped[i] && have.Equal(r) {
				found = i
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("%w: %s", ErrRankingNotFound, r)
		}
		dropped[found] = true
	}
	if len(s.d.Rankings)-len(remove)+len(add) == 0 {
		return ErrDatasetEmptied
	}

	// Validation passed — mutate. Removals unfold the dataset's own matched
	// ranking (bucket-order equal to the request, so the same code and
	// score); a Lehmer state that reports divergence is dropped and rebuilt
	// by the next Run rather than trusted.
	for i, have := range s.d.Rankings {
		if !dropped[i] {
			continue
		}
		if s.lehmer != nil {
			if err := s.lehmer.Remove(have); err != nil {
				s.lehmer = nil
			}
		}
		for _, st := range s.scores {
			st.Remove(have)
		}
		for _, w := range s.warm {
			w.score -= kendall.Dist(w.consensus, have, s.d.N)
		}
	}
	for _, r := range add {
		if s.lehmer != nil {
			s.lehmer.Add(r)
		}
		for _, st := range s.scores {
			st.Add(r)
		}
		for _, w := range s.warm {
			w.score += kendall.Dist(w.consensus, r, s.d.N)
		}
	}

	rks := make([]*Ranking, 0, len(s.d.Rankings)-len(remove)+len(add))
	for i, r := range s.d.Rankings {
		if !dropped[i] {
			rks = append(rks, r)
		}
	}
	rks = append(rks, add...)
	s.d = &Dataset{N: s.d.N, Rankings: rks}
	s.deltas++
	s.version += uint64(len(add) + len(remove))
	s.hash = ""
	return nil
}

// Run executes the named matrix-free algorithm on the session's dataset
// under ctx and returns a structured Result with Approx set. Non-matrix-
// free names are rejected — the exact tier needs a complete dataset and a
// Session.
//
// The first Run per algorithm family builds its incremental state (sharded
// across the worker budget — see WithWorkers); later Runs, including after
// ApplyDelta, read consensus straight from the maintained state. The
// cancellation contract matches the tier's: a cancelled ctx aborts a
// mid-encode build promptly with context.Canceled, while an expired
// deadline lets the bounded build complete (DeadlineHit stays false).
func (s *ApproxSession) Run(ctx context.Context, name string, opts ...Option) (*Result, error) {
	a, err := core.New(name)
	if err != nil {
		return nil, err
	}
	cfg := s.defaults
	cfg.pairs = nil
	for _, o := range opts {
		o(&cfg)
	}
	return s.run(ctx, a, cfg, "")
}

// RunSpec executes the run described by a canonical RunSpec, normalized and
// overlaid on the session defaults exactly as Session.RunSpec does.
func (s *ApproxSession) RunSpec(ctx context.Context, spec RunSpec, opts ...Option) (*Result, error) {
	return s.runSpec(ctx, "", spec, opts)
}

// RunSpecPinned is RunSpec with a dataset pin: the run executes only while
// the session's dataset still hashes to hash, failing with ErrStalePairs
// otherwise. The check happens under the same lock that reads the dataset,
// so a serving layer that labels its response (and keys its consensus
// cache) with a hash it looked the session up by can never attach a result
// to the wrong dataset when a concurrent ApplyDelta rotates the session
// away between the lookup and the run — the approx tier's analogue of the
// exact tier's WithPairs snapshot pinning.
func (s *ApproxSession) RunSpecPinned(ctx context.Context, hash string, spec RunSpec, opts ...Option) (*Result, error) {
	return s.runSpec(ctx, hash, spec, opts)
}

func (s *ApproxSession) runSpec(ctx context.Context, pin string, spec RunSpec, opts []Option) (*Result, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	a, err := core.New(norm.Algorithm)
	if err != nil {
		return nil, err
	}
	cfg := s.defaults
	cfg.pairs = nil
	cfg.spec.merge(norm)
	for _, o := range opts {
		o(&cfg)
	}
	return s.run(ctx, a, cfg, pin)
}

// run is the shared body of Run and RunSpec. A non-empty pin is the hash
// the current dataset must still match, verified under the run lock.
func (s *ApproxSession) run(ctx context.Context, a core.Aggregator, cfg runConfig, pin string) (*Result, error) {
	if !core.IsMatrixFree(a) {
		return nil, fmt.Errorf("rankagg: %s is not a matrix-free algorithm (approximation tier: lehmer, avgrank, scores); use a Session", a.Name())
	}
	if cfg.pairs != nil {
		return nil, fmt.Errorf("%w: %s never reads pair counts; drop the WithPairs option", ErrMatrixFreePairs, a.Name())
	}
	if errors.Is(ctx.Err(), context.Canceled) {
		return nil, context.Canceled
	}
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if pin != "" {
		if s.hash == "" {
			s.hash = s.d.Hash()
		}
		if s.hash != pin {
			return nil, fmt.Errorf("%w: the session's dataset rotated to %s", ErrStalePairs, s.hash)
		}
	}
	cons, err := s.consensusLocked(ctx, a, cfg)
	if err != nil {
		return nil, err
	}
	name := a.Name()
	var score int64
	if w := s.warm[name]; w != nil && cons.Equal(w.consensus) {
		// The delta-adjusted score of an unmoved consensus is already exact:
		// skip the rescore (an O(n) positions pass plus O(Σ L log L) over
		// the rankings) entirely.
		score = w.score
	} else {
		score = kendall.Score(cons, s.d)
	}
	s.warm[name] = &approxWarm{consensus: cons, score: score}
	return &Result{
		Algorithm: name,
		Consensus: cons,
		Score:     score,
		Approx:    true,
		Elapsed:   time.Since(start),
	}, nil
}

// consensusLocked returns the algorithm's consensus from its incremental
// state, building the state on first use with the run's worker budget.
// Callers hold s.mu.
func (s *ApproxSession) consensusLocked(ctx context.Context, a core.Aggregator, cfg runConfig) (*Ranking, error) {
	workers := cfg.runOptions().WorkerBudget()
	switch alg := a.(type) {
	case approx.Lehmer:
		if s.lehmer == nil {
			st, err := approx.BuildLehmer(ctx, s.d, workers)
			if err != nil {
				return nil, err
			}
			s.lehmer = st
		}
		return s.lehmer.Consensus(), nil
	case approx.ScoreRank:
		st := s.scores[a.Name()]
		if st == nil {
			var err error
			st, err = approx.BuildScore(ctx, s.d, alg.Optimistic, workers)
			if err != nil {
				return nil, err
			}
			s.scores[a.Name()] = st
		}
		return st.Consensus(), nil
	default:
		// A future matrix-free algorithm without incremental state support:
		// run it batch on the current snapshot.
		rr, err := core.Run(ctx, a, s.d, cfg.runOptions())
		if err != nil {
			return nil, err
		}
		return rr.Consensus, nil
	}
}
