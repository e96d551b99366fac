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
	"rankagg/internal/rankings"
)

// Session is the context-aware entry point for aggregating one dataset. It
// owns the shared resources of that dataset — the O(m·n²) pair matrix,
// built lazily on the first Run and cached for every later one, and a
// content hash identifying the dataset to external caches — and carries
// session-wide defaults (the worker budget) into every run.
//
//	sess, _ := rankagg.NewSession(d, rankagg.WithWorkers(8))
//	res, err := sess.Run(ctx, "BioConsert")
//	fmt.Println(res.Consensus, res.Score, res.Elapsed)
//
// A Session is safe for concurrent use: any number of goroutines may Run
// algorithms on it simultaneously, all sharing the one cached matrix.
//
// A Session is also dynamic: AddRanking, RemoveRanking and ApplyDelta
// mutate the underlying dataset in O(n²) per ranking by delta-updating the
// cached matrix (kendall's Pairs.Add/Remove) instead of rebuilding it.
// Mutation is copy-on-write — the dataset and matrix are replaced, never
// modified — so runs already in flight keep their consistent snapshot and
// mutation may race freely with Run. The caller must still never mutate
// the *Dataset value itself after the session is created; all changes go
// through the session's own mutation methods.
type Session struct {
	defaults runConfig

	mu     sync.Mutex
	d      *Dataset // current dataset; replaced on mutation, never modified
	pairs  *Pairs   // matrix of d, nil until built; replaced on mutation
	builds int
	deltas int
	// version counts the mutations applied to the session; the cached
	// matrix's Version is kept equal to it, so a matrix captured before a
	// mutation is detectably stale (see WithPairs and ErrStalePairs).
	version uint64
	hash    string
}

// Sentinel errors of the dynamic-session API, matchable with errors.Is.
var (
	// ErrStalePairs rejects a WithPairs matrix captured before a session
	// mutation: its counts no longer describe the session's dataset.
	// Re-obtain the current matrix from Session.Pairs. A pinned run
	// (RunSpecPinned) whose dataset has rotated away fails with it too.
	ErrStalePairs = errors.New("rankagg: stale pair matrix")
	// ErrRankingNotFound rejects the removal of a ranking that is not in
	// the session's dataset.
	ErrRankingNotFound = rankings.ErrRankingNotFound
	// ErrDatasetEmptied rejects a delta that would leave the dataset with
	// no rankings at all.
	ErrDatasetEmptied = rankings.ErrDatasetEmptied
	// ErrMatrixFreePairs rejects a per-run WithPairs matrix on an
	// approximation-tier run (lehmer, avgrank, scores): matrix-free
	// algorithms never read pair counts, so a supplied matrix signals a
	// caller misunderstanding rather than a reusable optimization.
	ErrMatrixFreePairs = errors.New("rankagg: matrix-free algorithm does not take a pair matrix")
)

// runConfig collects the functional options of NewSession and Session.Run.
// The result-determining and execution parameters live in an embedded
// RunSpec — the options are thin setters over its fields, so an option
// list and a client-supplied spec describe runs in exactly the same terms.
type runConfig struct {
	spec runSpecState
	// timeLimit is WithTimeLimit's duration-typed override; when zero,
	// spec.TimeoutMS (millisecond-typed, the wire form) applies.
	timeLimit  time.Duration
	pairs      *Pairs
	matrixMode MatrixMode
	warmStart  *Ranking
}

// runSpecState mirrors RunSpec with the seed by value (a normalized
// RunSpec's nil seed is the default seed 0).
type runSpecState struct {
	algorithm string
	seed      int64
	restarts  int
	timeoutMS int64
	workers   int
}

// merge overlays a normalized RunSpec onto the session defaults:
// result-determining fields come from the spec wholesale (Normalize
// resolved them — a normalized spec is a complete description of the
// run), execution fields only where the spec sets them.
func (st *runSpecState) merge(sp RunSpec) {
	st.algorithm = sp.Algorithm
	st.seed = *sp.Seed
	st.restarts = sp.Restarts
	if sp.TimeoutMS > 0 {
		st.timeoutMS = sp.TimeoutMS
	}
	if sp.Workers > 0 {
		st.workers = sp.Workers
	}
}

// Option configures a Session (session-wide defaults) or a single
// Session.Run call (per-run overrides).
type Option func(*runConfig)

// WithWorkers sets the worker budget for internally parallel work:
// BioConsert's restart pool, KwikSortMin/RepeatChoiceMin independent runs.
// As a session option it is the session-wide budget every run inherits;
// as a run option it overrides the budget for that run. n <= 0 means "let
// the algorithm choose" (all CPUs for BioConsert and ExactAlgorithm's
// priming, one for KwikSortMin and RepeatChoiceMin).
func WithWorkers(n int) Option { return func(c *runConfig) { c.spec.workers = n } }

// WithSeed fixes the randomness seed of randomized algorithms (KwikSort's
// pivots, RepeatChoice's visit order, annealing's walk). Runs with the same
// seed and options are deterministic.
func WithSeed(seed int64) Option {
	return func(c *runConfig) { c.spec.seed = seed }
}

// WithRestarts overrides the number of independent randomized runs for the
// algorithms that take one (KwikSortMin, RepeatChoiceMin, Ailon's
// roundings). 0 keeps the algorithm's default.
func WithRestarts(n int) Option { return func(c *runConfig) { c.spec.restarts = n } }

// WithTimeLimit bounds a run's wall-clock time. The limit is merged into
// the run's context as a deadline, so it propagates mid-descent exactly
// like a caller-supplied ctx deadline; on expiry the best incumbent is
// returned with Result.DeadlineHit set (see Run).
func WithTimeLimit(d time.Duration) Option {
	return func(c *runConfig) { c.timeLimit = d }
}

// WithWarmStart seeds the search from a previously computed consensus
// instead of the algorithm's cold-start policy: BioConsert's restart pool
// collapses to the one warm seed and Anneal's walk starts there, so a
// re-solve after a small dataset delta converges in a fraction of the
// moves (a one-ranking delta rarely shifts the optimum far). Algorithms
// without warm-start support (see CanWarmStart) ignore it. The warm
// ranking must be a valid bucket order of the session's whole universe,
// every element exactly once, or it is ignored; Result.Stats.WarmStart
// reports whether the search actually consumed it.
func WithWarmStart(r *Ranking) Option {
	return func(c *runConfig) { c.warmStart = r }
}

// WithMatrixMode selects the storage representation of the session's pair
// matrix (MatrixAuto, MatrixInt32, MatrixInt16). The default, MatrixAuto,
// picks the leanest backend the dataset admits — identical counts, 2–3×
// less memory, and a matching MatrixBytes weight in byte-budgeted caches.
// It is a session-wide option consumed when the matrix is first built; as
// a Run option it has no effect (runs share the session's cached matrix).
func WithMatrixMode(m MatrixMode) Option {
	return func(c *runConfig) { c.matrixMode = m }
}

// WithPairs supplies a prebuilt pair matrix. As a session option it seeds
// the session cache (the session then never builds its own; the session
// adopts the matrix's Version as its own starting version); as a run
// option it overrides the cache for that run. Run accepts p only when its
// Version matches Session.Version: on a version-0 session any fresh
// NewPairs build of the dataset works, while after mutations — or on a
// session seeded from a previously mutated matrix — only matrices
// obtained from Session.Pairs carry the right stamp. A matrix captured
// before a mutation, or built independently of the session (Version 0,
// no stamp), is rejected with ErrStalePairs rather than silently
// trusted.
func WithPairs(p *Pairs) Option { return func(c *runConfig) { c.pairs = p } }

// Result is the structured outcome of a Session.Run.
type Result struct {
	// Algorithm is the registered name that produced the consensus.
	Algorithm string
	// Consensus is the computed consensus ranking.
	Consensus *Ranking
	// Score is the generalized Kemeny score K(Consensus, R), computed from
	// the session's cached pair matrix.
	Score int64
	// Proved reports that Consensus was proved optimal (exact methods that
	// completed; always false for heuristics and deadline-cut runs).
	Proved bool
	// DeadlineHit reports that a deadline (WithTimeLimit or the ctx's own
	// deadline) stopped the search early: Consensus is the best incumbent
	// found, Proved is false. This is reported uniformly across algorithms
	// — the exact searches (BnB, ExactAlgorithm, ExactLPB) and the
	// heuristics (BioConsert, Anneal, MC4, Ailon3/2) all keep their best
	// state instead of failing. The documented error paths remain errors: a
	// cancelled ctx returns context.Canceled, an oversized instance a
	// TooLargeError, and a deadline that fires before any solution exists
	// at all (Ailon3/2's first LP solve) a TimeLimitError.
	DeadlineHit bool
	// Approx reports that the consensus came from the matrix-free
	// approximation tier (lehmer, avgrank, scores): no pair matrix was
	// built or consulted — Score was computed ranking-by-ranking in
	// O(n + Σ L log L) instead of from matrix counts — and the consensus
	// minimizes a surrogate objective (inversion-vector median, summed
	// rank), not the generalized Kemeny score itself.
	Approx bool
	// Elapsed is the wall-clock time of the run (excluding a cached matrix
	// reuse, including a first-run matrix build).
	Elapsed time.Duration
	// Stats holds search statistics where the algorithm records them:
	// restarts completed, branch & bound nodes, convergence iterations.
	Stats SearchStats
}

// SearchStats reports what a run's search did (see core.SearchStats).
type SearchStats = core.SearchStats

// NewSession validates the dataset and wraps it in a Session. The dataset
// must be complete (normalize first — see Unify, UnifyBroken, Project);
// options become session-wide defaults for every Run.
func NewSession(d *Dataset, opts ...Option) (*Session, error) {
	if err := core.CheckInput(d); err != nil {
		return nil, err
	}
	s := &Session{d: d}
	for _, o := range opts {
		o(&s.defaults)
	}
	if s.defaults.pairs != nil {
		s.pairs = s.defaults.pairs
		s.version = s.pairs.Version
		s.defaults.pairs = nil
	}
	return s, nil
}

// Dataset returns the session's current dataset: an immutable snapshot
// that mutation methods replace rather than modify. It must not be
// mutated by the caller.
func (s *Session) Dataset() *Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d
}

// Pairs returns the session's current pair matrix, building and caching
// it on first use. The returned matrix is an immutable snapshot shared by
// every run (and safe to hand to concurrent readers elsewhere); session
// mutations replace the cached matrix instead of modifying it, so a
// snapshot stays internally consistent — just stale (see WithPairs).
func (s *Session) Pairs() *Pairs {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pairsLocked()
}

// pairsLocked builds the matrix of the current dataset if none is cached —
// in the session's configured storage mode (WithMatrixMode) — stamping it
// with the session's mutation version. Callers hold s.mu.
func (s *Session) pairsLocked() *Pairs {
	if s.pairs == nil {
		s.pairs = NewPairsMode(s.d, s.defaults.matrixMode)
		s.pairs.Version = s.version
		s.builds++
	}
	return s.pairs
}

// MatrixBuilds returns how many times the session has built its pair
// matrix from scratch: 0 before the first Run (or a seeded WithPairs), 1
// after — and still 1 after any number of O(n²) delta mutations. Caches
// holding sessions (internal/cache) assert on it that repeated requests
// and PATCHed deltas over one dataset never rebuild the matrix.
func (s *Session) MatrixBuilds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.builds
}

// MatrixDeltas returns how many delta mutations (ApplyDelta calls, which
// AddRanking/RemoveRanking wrap) have been applied to a built matrix. A
// mutation arriving before the first build costs nothing and is not
// counted: the next build starts from the mutated dataset directly.
func (s *Session) MatrixDeltas() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deltas
}

// Version returns the session's mutation version: +1 per ranking added
// or removed, starting from 0 — or, for a session seeded via WithPairs,
// from the seeded matrix's own Version, so the invariant "the cached
// matrix's Version equals the session's" holds from birth. That
// invariant is how stale WithPairs snapshots are detected.
func (s *Session) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// AddRanking appends r to the session's dataset. The cached pair matrix,
// when built, is delta-updated in O(n²) (copy-on-write, so concurrent
// runs keep their snapshot); the content hash rotates to the new
// dataset's. r must cover the session's whole universe — sessions hold
// normalized datasets, and one partial ranking would invalidate every
// Complete-dependent fast path.
func (s *Session) AddRanking(r *Ranking) error {
	return s.ApplyDelta([]*Ranking{r}, nil)
}

// RemoveRanking removes the first ranking of the dataset that is
// bucket-order equal to r (Ranking.Equal), returning ErrRankingNotFound
// when there is none and ErrDatasetEmptied when it is the last one.
func (s *Session) RemoveRanking(r *Ranking) error {
	return s.ApplyDelta(nil, []*Ranking{r})
}

// ApplyDelta mutates the session's dataset atomically under the shared
// delta rule (rankings.ApplyDelta): every ranking of remove is matched (by
// Ranking.Equal, each dataset ranking consumed at most once) and dropped,
// then every ranking of add, which must cover the whole universe, is
// appended, in order. Validation happens up front — on any error nothing
// is changed.
//
// The cached pair matrix is updated by one clone plus one O(n²)
// Pairs.Add/Remove per ranking instead of an O(m·n²) rebuild
// (MatrixBuilds stays put, MatrixDeltas increments). The dataset content
// hash rotates: Session.Hash recomputes it fresh on next use, an O(m·n)
// cost dominated by the matrix delta. Matrices captured before the call
// become stale for WithPairs (ErrStalePairs) while remaining internally
// consistent for runs already using them.
func (s *Session) ApplyDelta(add, remove []*Ranking) error {
	if len(add) == 0 && len(remove) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	next, removed, err := rankings.ApplyDelta(s.d, add, remove)
	if err != nil {
		return err
	}
	if s.pairs != nil {
		// One clone covers the whole batch; each ranking is then an O(n²)
		// signed accumulation. In-flight readers keep the old matrix.
		np := s.pairs.Clone()
		for _, r := range removed {
			np.Remove(r)
		}
		for _, r := range add {
			np.Add(r)
		}
		s.pairs = np
		s.deltas++
	}
	s.d = next
	s.version += uint64(len(add) + len(remove))
	if s.pairs != nil {
		// Add/Remove bumped the clone once per ranking; keep the invariant
		// pairs.Version == session version explicit all the same.
		s.pairs.Version = s.version
	}
	s.hash = "" // recomputed fresh (O(m·n)) on the next Hash call
	return nil
}

// MatrixBytes returns the memory footprint of the cached pair matrix in
// bytes — the real backing size of the representation in use (see
// WithMatrixMode), not a fixed 3×int32 formula — or 0 when no matrix has
// been built yet. A byte-budgeted session cache uses it as the entry
// weight for eviction, so compact backends directly increase how many hot
// sessions a fixed budget holds; it can also grow across a mutation when
// a delta promotes the backend (int16 → int32 at m = 32768, tied-plane
// materialization), which such caches must re-read (cache.Mutate does).
func (s *Session) MatrixBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pairs == nil {
		return 0
	}
	return s.pairs.Bytes()
}

// MatrixLayout returns the storage layout of the cached pair matrix
// (kendall.Pairs.Layout — "int32", "int16+derived", "rowpair-int8", ...),
// or "" when no matrix has been built yet. Introspection only: unlike
// Pairs it never triggers the O(m·n²) build.
func (s *Session) MatrixLayout() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pairs == nil {
		return ""
	}
	return s.pairs.Layout()
}

// CompactMatrix re-packs the cached pair matrix into the leanest layout
// its mode admits (Pairs.Compact) and returns the bytes reclaimed — 0 when
// no matrix is built, it is already minimal, or a concurrent mutation
// raced the re-pack. Deltas only ever promote the representation (a
// partial ranking materializes the tied plane, a width-cap crossing widens
// the counts; see Pairs.Add), so a session that saw a transient delta can
// hold a matrix several times its fresh-build size; serving layers call
// this from an idle sweep (cache.CompactSweep) to give that memory back.
//
// The O(n²) conversion runs outside the session lock against an immutable
// snapshot, and the swap is copy-on-write: concurrent Run readers keep
// whichever consistent matrix they snapshotted, and the compacted value
// carries the same Version, so WithPairs staleness checks are unaffected.
// If the matrix changed while converting, the result is discarded.
func (s *Session) CompactMatrix() int64 {
	s.mu.Lock()
	p := s.pairs
	s.mu.Unlock()
	if p == nil {
		return 0
	}
	np := p.Compact()
	if np == p {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pairs != p {
		return 0 // a mutation won the race; its layout is current
	}
	s.pairs = np
	return p.Bytes() - np.Bytes()
}

// Hash returns the current dataset's content hash (32 hex characters),
// computed lazily and cached until the next mutation invalidates it (the
// recompute is O(m·n), dominated by the O(n²) matrix delta). It
// identifies the dataset to external caches — a serving layer keys its
// pair-matrix LRU on it, so repeated queries over a hot dataset skip the
// O(m·n²) build entirely, and re-keys the entry when a PATCH rotates the
// hash.
func (s *Session) Hash() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hash == "" {
		s.hash = s.d.Hash()
	}
	return s.hash
}

// Run executes the named algorithm (see Algorithms) on the session's
// dataset under ctx and returns a structured Result.
//
// Cancellation and deadlines propagate into the long-running searches
// mid-descent (BnB, ExactAlgorithm, ExactLPB, BioConsert, Anneal, MC4 poll
// the context at a bounded interval; Ailon3/2 between LP cut rounds):
//
//   - ctx cancelled → (nil, context.Canceled), promptly.
//   - deadline expired (WithTimeLimit or ctx deadline) → the best
//     incumbent with DeadlineHit = true and Proved = false.
//
// Algorithms without long-running searches honor the context at call
// boundaries; all registered algorithms work through Run.
//
// Approximation-tier algorithms (lehmer, avgrank, scores) take a
// matrix-free path: the session builds no pair matrix for them —
// MatrixBuilds and MatrixBytes stay 0 on an approx-only session — the
// Result's Score is computed ranking-by-ranking, Result.Approx is set, and
// a per-run WithPairs is rejected with ErrMatrixFreePairs.
func (s *Session) Run(ctx context.Context, name string, opts ...Option) (*Result, error) {
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

// RunSpec executes the run described by a canonical RunSpec (the form
// client JSON and CLI flags reduce to — see RunSpec) on the session's
// dataset. The spec is normalized first (Normalize is the single place
// defaults resolve, so the library, the CLI and the server cannot drift),
// then overlaid on the session defaults: result-determining fields
// (algorithm, seed, restarts) come from the spec, execution fields
// (timeout, workers) only where the spec sets them. Options apply on top,
// for the per-run knobs a spec does not carry (WithPairs, WithWarmStart).
// Semantics are otherwise exactly Run's.
func (s *Session) RunSpec(ctx context.Context, spec RunSpec, opts ...Option) (*Result, error) {
	return s.runSpec(ctx, "", spec, opts)
}

// RunSpecPinned is RunSpec with a dataset pin: the run executes only while
// the session's dataset still hashes to hash, failing with ErrStalePairs
// otherwise. The check happens under the same lock that picks the dataset
// and its matrix, so a serving layer that labels its response (and keys
// its consensus cache) with the hash it looked the session up by never
// attaches a result to another dataset when a concurrent ApplyDelta
// rotates the session between the lookup and the run.
func (s *Session) RunSpecPinned(ctx context.Context, hash string, spec RunSpec, opts ...Option) (*Result, error) {
	return s.runSpec(ctx, hash, spec, opts)
}

func (s *Session) runSpec(ctx context.Context, pin string, spec RunSpec, opts []Option) (*Result, error) {
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
func (s *Session) run(ctx context.Context, a core.Aggregator, cfg runConfig, pin string) (*Result, error) {
	if core.IsMatrixFree(a) {
		return s.runMatrixFree(ctx, a, cfg, pin)
	}
	start := time.Now()
	// Snapshot dataset and matrix together under the lock: a concurrent
	// mutation replaces both, so the pair this run sees is consistent.
	s.mu.Lock()
	if err := s.checkPinLocked(pin); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	d := s.d
	p := cfg.pairs
	if p == nil {
		p = s.pairsLocked()
	} else if p.N != d.N || p.M != len(d.Rankings) || p.Version != s.version {
		pv, sv := p.Version, s.version
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: supplied matrix is version %d (n=%d m=%d), session is version %d (n=%d m=%d); re-obtain it from Session.Pairs after AddRanking/RemoveRanking",
			ErrStalePairs, pv, p.N, p.M, sv, d.N, len(d.Rankings))
	}
	s.mu.Unlock()
	ro := cfg.runOptions()
	ro.Pairs = p
	rr, err := core.Run(ctx, a, d, ro)
	if err != nil {
		return nil, err
	}
	return &Result{
		Algorithm:   a.Name(),
		Consensus:   rr.Consensus,
		Score:       p.Score(rr.Consensus),
		Proved:      rr.Proved,
		DeadlineHit: rr.DeadlineHit,
		Elapsed:     time.Since(start),
		Stats:       rr.Stats,
	}, nil
}

// runMatrixFree is the approximation-tier Run path: the dataset snapshot is
// taken without touching (or building) the pair matrix, and the score comes
// from kendall.Score — one O(n) positions pass, then O(L log L) per ranking
// of L elements — so a session
// serving only approx runs never pays the O(m·n²) build or the O(n²)
// memory.
func (s *Session) runMatrixFree(ctx context.Context, a core.Aggregator, cfg runConfig, pin string) (*Result, error) {
	if cfg.pairs != nil {
		return nil, fmt.Errorf("%w: %s never reads pair counts; drop the WithPairs option", ErrMatrixFreePairs, a.Name())
	}
	s.mu.Lock()
	err := s.checkPinLocked(pin)
	d := s.d
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return runMatrixFree(ctx, a, d, cfg)
}

// checkPinLocked fails with ErrStalePairs when pin is set and the current
// dataset no longer hashes to it. Callers hold s.mu.
func (s *Session) checkPinLocked(pin string) error {
	if pin == "" {
		return nil
	}
	if s.hash == "" {
		s.hash = s.d.Hash()
	}
	if s.hash != pin {
		return fmt.Errorf("%w: the session's dataset rotated to %s", ErrStalePairs, s.hash)
	}
	return nil
}

// RunMatrixFree executes a matrix-free approximation-tier algorithm (see
// MatrixFree) under ctx on d and returns a full Result with Approx set.
// Unlike NewSession + Run, d may be incomplete — top-k lists aggregate
// directly, absent elements falling into the unified model's virtual last
// bucket — which is why the serving layer's approx tier runs through this
// entry point instead of the session cache. Non-matrix-free names are
// rejected; WithPairs is rejected with ErrMatrixFreePairs.
func RunMatrixFree(ctx context.Context, name string, d *Dataset, opts ...Option) (*Result, error) {
	a, err := core.New(name)
	if err != nil {
		return nil, err
	}
	if !core.IsMatrixFree(a) {
		return nil, fmt.Errorf("rankagg: %s is not a matrix-free algorithm (approximation tier: lehmer, avgrank, scores)", name)
	}
	if err := approx.CheckInput(d); err != nil {
		return nil, err
	}
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.pairs != nil {
		return nil, fmt.Errorf("%w: %s never reads pair counts; drop the WithPairs option", ErrMatrixFreePairs, a.Name())
	}
	return runMatrixFree(ctx, a, d, cfg)
}

// runOptions lowers the config into the core layer's per-run parameters.
// WithTimeLimit's duration wins over the spec's millisecond field when both
// are set — it is the more precise spelling of the same knob.
func (cfg *runConfig) runOptions() core.RunOptions {
	tl := cfg.timeLimit
	if tl == 0 && cfg.spec.timeoutMS > 0 {
		tl = time.Duration(cfg.spec.timeoutMS) * time.Millisecond
	}
	return core.RunOptions{
		Workers:   cfg.spec.workers,
		Seed:      cfg.spec.seed,
		Restarts:  cfg.spec.restarts,
		TimeLimit: tl,
		WarmStart: cfg.warmStart,
	}
}

func runMatrixFree(ctx context.Context, a core.Aggregator, d *Dataset, cfg runConfig) (*Result, error) {
	start := time.Now()
	rr, err := core.Run(ctx, a, d, cfg.runOptions())
	if err != nil {
		return nil, err
	}
	return &Result{
		Algorithm:   a.Name(),
		Consensus:   rr.Consensus,
		Score:       kendall.Score(rr.Consensus, d),
		Proved:      rr.Proved,
		DeadlineHit: rr.DeadlineHit,
		Approx:      true,
		Elapsed:     time.Since(start),
		Stats:       rr.Stats,
	}, nil
}
