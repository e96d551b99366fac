// Package server implements the long-lived HTTP serving layer over the
// rankagg Session API: a JSON aggregation endpoint backed by a hash-keyed
// LRU of sessions (internal/cache), so repeated and concurrent requests
// over the same dataset share one cached O(m·n²) pair matrix.
//
// Endpoints — datasets are first-class resources identified by their
// content hash:
//
//	PUT    /v1/datasets                create a dataset by content (idempotent)
//	GET    /v1/datasets                list datasets (persisted and cached)
//	POST   /v1/datasets/{hash}/aggregate  aggregate a stored dataset (canonical)
//	PATCH  /v1/datasets/{hash}         delta-update a dataset in place
//	GET    /v1/datasets/{hash}         introspect a dataset
//	DELETE /v1/datasets/{hash}         evict and tombstone a dataset
//	POST   /v1/aggregate               aggregate an inline dataset (compatibility
//	                                   alias: auto-creates without persisting)
//	GET    /v1/algorithms              list registered algorithms
//	GET    /healthz                    liveness (503 while draining for shutdown)
//	GET    /metrics                    Prometheus text exposition
//
// Persistence: with Config.Store set (the -data-dir flag), datasets created
// via PUT are durable — internal/store keeps each one's wire-form snapshot
// plus an append-only delta log, and the session cache becomes exactly
// that: a cache. A PATCH appends its delta to the log (fsync'd) BEFORE any
// in-memory state moves, a PATCH or aggregation whose session was evicted
// rebuilds it by snapshot load + log replay instead of 404ing, and each
// dataset's consensus-cache entries persist alongside it, so a restarted
// server answers repeat traffic with consensus_hit: true and zero solver
// runs. POST /v1/aggregate never persists: it remains the one-shot
// compatibility surface (deprecated in favor of PUT + the hash endpoints;
// kept for at least two releases).
//
// Hash-rotation contract (the one place it is documented): a dataset's
// handle IS its content hash, so every successful PATCH rotates the handle
// — the response carries the new hash in dataset_hash AND in a Location
// header (/v1/datasets/{newhash}), the old hash immediately stops matching
// (404 on subsequent use, or 409 from the store when the rotation raced),
// and everything keyed on the hash moves with it: the cache entry is
// re-keyed, the stored consensus entries of the old hash are invalidated
// with the best one demoted to a consume-once warm-start hint under the
// new hash, and the delta log keeps its directory under the CREATION hash
// while serving lookups only by the current one. Clients must treat
// dataset_hash/Location as the sole handle for further requests.
//
// Consensus cache: exact-tier runs are deterministic under a fixed seed,
// so their results are cached under (dataset hash, canonical run spec key)
// — rankagg.RunSpec.Key over the result-determining fields algorithm, seed
// and restarts — and a repeat POST with an identical spec is served as an
// O(1) lookup (consensus_hit: true, no solver run, no worker token held).
// Concurrent identical requests single-flight onto one solve. A PATCH
// invalidates the base hash's stored results and harvests the best of them
// as a warm-start hint for the rotated hash: the next warm-startable solve
// (BioConsert, Anneal) seeds from the pre-PATCH optimum instead of cold
// restarts (rankagg_warm_starts_total, stats.warm_start in the response).
// Approx-tier results are deterministic for a (dataset, spec) too — no
// seed, no search — so they are cached and persisted exactly like exact
// ones; only deadline-cut results are never cached.
//
// Dynamic datasets: PATCH applies add/remove ranking deltas to the cached
// session of a hot dataset in O(n²) per ranking (Session.ApplyDelta over
// kendall's incremental Pairs.Add/Remove) instead of the O(m·n²) rebuild a
// full POST of the changed dataset would cost on a cache miss. The content
// hash rotates with the mutation: the response carries the new hash, the
// cache entry is re-keyed to it, and a subsequent POST of the full changed
// dataset is a plain cache hit. A PATCH whose base hash is not cached is a
// 404 (rankagg_delta_miss_fallback_total) — the client falls back to a
// full POST.
//
// Admission routing: datasets whose projected pair matrix exceeds the
// -max-elements byte budget are not rejected by default — under
// -approx-mode auto they are served by the matrix-free approximation tier
// (lehmer / avgrank / scores, substituted by dataset shape), marked with
// approx: true and the X-Rankagg-Tier header, and counted in
// rankagg_approx_routed_total. Top-list payloads ("toplists" instead of
// "rankings") — and any dataset that resolves to an incomplete one —
// always run on that tier. -approx-mode force serves every aggregation
// matrix-free; off restores the 413, counted in
// rankagg_admission_rejected_total{reason="matrix-budget"}. The tier's own
// O(n) state is charged against the same byte budget: a dataset whose
// declared universe it cannot hold 413s, counted under
// reason="approx-budget", before it is hashed.
//
// Approx-tier sessions: the tier keeps its own hash-keyed LRU of
// rankagg.ApproxSession values — the delta-maintainable aggregation state
// (per-element Lehmer multisets, score totals) weighed by StateBytes, a
// tiny fraction of a pair matrix. That is what makes PATCH work on
// approx-routed and toplists datasets: a PATCH whose hash misses the
// matrix cache falls through to the approx cache and applies the delta to
// the incremental state in O(n log n) per ranking
// (rankagg_approx_delta_applied_total), partial adds included — a toplists
// dataset absorbs more top-k lists. Persisted incomplete datasets replay
// their delta log through the same ApplyDelta path on rebuild
// (Store.RebuildApprox). Encode passes shard across the request's worker
// tokens (rankagg_approx_encode_workers); the consensus is worker-count
// invariant, so the answer never depends on load.
//
// Request scheduling: every aggregation holds at least one token of a
// global worker budget (Config.Workers, default NumCPU) for its whole
// run, so concurrent requests never oversubscribe the CPU. A request
// arriving on an idle server opportunistically takes the idle tokens too
// and runs its restart pools at full parallelism (consensus results are
// worker-count invariant, so the answer does not depend on load); tokens
// are held until the run finishes, so requests arriving while the budget
// is fully held queue for a first token within their own time budget
// (503 on expiry). Config.MaxWorkersPerRun caps the per-request share
// when fairness under mixed long/short traffic matters more than lone-
// request latency. Each request runs under its own context: the client
// disconnecting cancels the search mid-descent, and the per-request time
// budget (request timeout_ms clamped to Config.MaxTimeout) turns into a
// deadline that returns the best incumbent with deadline_hit set.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"rankagg"
	"rankagg/internal/cache"
	"rankagg/internal/rankings"
	"rankagg/internal/store"
)

// Config parameterizes New. The zero value serves with NumCPU workers, a
// 64-entry / 1 GiB session cache, a 30s max time budget, and a 32 MiB
// request body cap.
type Config struct {
	// Cache is the session LRU. Nil: a cache with CacheEntries/CacheBytes
	// budgets is created.
	Cache *cache.Cache
	// CacheEntries and CacheBytes bound the cache built when Cache is nil
	// (0: 64 entries / 1 GiB; negative: that bound is unlimited). The
	// approx-tier session cache reuses the entry bound with a sixteenth of
	// the byte budget — its per-dataset state is a tiny fraction of a
	// matrix.
	CacheEntries int
	CacheBytes   int64
	// ConsensusBytes bounds the consensus cache — stored (dataset hash,
	// run spec) → result entries (0: 64 MiB; negative: unlimited).
	ConsensusBytes int64
	// Workers is the global worker budget shared by all in-flight
	// aggregations (<= 0: NumCPU).
	Workers int
	// MaxWorkersPerRun caps one request's share of the worker budget
	// (0: no cap — a lone request may take the whole budget).
	MaxWorkersPerRun int
	// MaxElements caps per-request pair-matrix memory, expressed as a
	// universe size: the budget is the 12·MaxElements² bytes an int32
	// matrix of that many elements would need. Admission charges each
	// dataset its REAL projected matrix bytes under MatrixMode — so the
	// compact backends admit proportionally larger universes (int16 +
	// derived-tied fits n up to ≈ 1.7× MaxElements in the same budget)
	// while int32 mode keeps the historical exact-n cap. The matrix
	// build is not cancellable, so the check runs before any allocation;
	// oversized datasets are rejected up front with 413 (0: 4096,
	// ≈ 200 MB of budget; negative: no cap). Approx-tier requests and PUTs
	// of incomplete datasets are charged their O(n) matrix-free state
	// (rankagg.PredictApproxBytes) against the same budget.
	MaxElements int
	// MatrixMode selects the pair-matrix storage representation for the
	// sessions this server builds (the -matrix-mode flag). The zero
	// value is rankagg.MatrixAuto: the leanest backend each dataset
	// admits, which multiplies how many sessions CacheBytes holds.
	MatrixMode rankagg.MatrixMode
	// ApproxMode governs the admission router's use of the matrix-free
	// approximation tier (the -approx-mode flag). The zero value is
	// ApproxAuto: requests whose projected matrix exceeds the byte budget
	// — and top-list payloads — are served matrix-free instead of
	// rejected. See ApproxMode's constants.
	ApproxMode ApproxMode
	// MaxTimeout caps every request's time budget; it is also the default
	// for requests that set none (0: 30s).
	MaxTimeout time.Duration
	// MaxBodyBytes caps the request body (0: 32 MiB).
	MaxBodyBytes int64
	// Store is the durable dataset store backing the cache (the -data-dir
	// flag). Nil: the server is ephemeral — datasets live only in the LRU,
	// exactly the pre-store behavior. With a store, New preloads every
	// persisted consensus entry into the consensus cache, so the first
	// request after a restart can already be a consensus hit.
	Store *store.Store
	// Log receives request errors (nil: the standard logger).
	Log *log.Logger
}

// Server is the HTTP serving layer. Create with New, expose via Handler,
// and flip Drain before shutting the listener down.
type Server struct {
	cache       *cache.Cache
	approx      *cache.ApproxCache
	consensus   *cache.ConsensusCache
	store       *store.Store
	workers     int
	perRun      int
	tokens      chan struct{}
	maxTimeout  time.Duration
	maxBody     int64
	maxElements int
	budget      int64 // per-request bytes -max-elements allows; 0: no cap
	matrixMode  rankagg.MatrixMode
	approxMode  ApproxMode
	log         *log.Logger
	metrics     *metrics
	draining    chan struct{} // closed by Drain
	mux         *http.ServeMux
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	perRun := cfg.MaxWorkersPerRun
	if perRun <= 0 || perRun > workers {
		perRun = workers
	}
	entries := cfg.CacheEntries
	if entries == 0 {
		entries = 64
	} else if entries < 0 {
		entries = 0 // cache.New's "unlimited"
	}
	bytes := cfg.CacheBytes
	if bytes == 0 {
		bytes = 1 << 30
	} else if bytes < 0 {
		bytes = 0
	}
	c := cfg.Cache
	if c == nil {
		c = cache.New(entries, bytes)
	}
	// The approx-tier session cache shares the session-cache budget knobs:
	// its state is orders of magnitude smaller than a pair matrix, so the
	// same entry bound with a sixteenth of the byte budget holds every
	// approx-routed dataset the matrix budget ever diverts.
	approxBytes := bytes / 16 // 0 (unlimited) stays 0
	consensusBytes := cfg.ConsensusBytes
	if consensusBytes == 0 {
		consensusBytes = 64 << 20
	} else if consensusBytes < 0 {
		consensusBytes = 0 // NewConsensus's "unlimited"
	}
	maxElements := cfg.MaxElements
	if maxElements == 0 {
		maxElements = 4096
	}
	maxTimeout := cfg.MaxTimeout
	if maxTimeout <= 0 {
		maxTimeout = 30 * time.Second
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 32 << 20
	}
	logger := cfg.Log
	if logger == nil {
		logger = log.Default()
	}
	s := &Server{
		cache:       c,
		approx:      cache.NewApprox(entries, approxBytes),
		consensus:   cache.NewConsensus(consensusBytes),
		store:       cfg.Store,
		workers:     workers,
		perRun:      perRun,
		tokens:      make(chan struct{}, workers),
		maxTimeout:  maxTimeout,
		maxBody:     maxBody,
		maxElements: maxElements,
		budget:      byteBudget(maxElements),
		matrixMode:  cfg.MatrixMode,
		approxMode:  cfg.ApproxMode,
		log:         logger,
		metrics:     newMetrics(cfg.MatrixMode.String(), cfg.ApproxMode.String()),
		draining:    make(chan struct{}),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/aggregate", s.instrument("aggregate", s.handleAggregate))
	s.mux.HandleFunc("POST /v1/datasets/{hash}/aggregate", s.instrument("aggregate", s.handleDatasetAggregate))
	s.mux.HandleFunc("PUT /v1/datasets", s.instrument("datasets", s.handlePutDatasets))
	s.mux.HandleFunc("GET /v1/datasets", s.instrument("datasets", s.handleListDatasets))
	s.mux.HandleFunc("PATCH /v1/datasets/{hash}", s.instrument("datasets", s.handlePatchDataset))
	s.mux.HandleFunc("GET /v1/datasets/{hash}", s.instrument("datasets", s.handleDatasetInfo))
	s.mux.HandleFunc("DELETE /v1/datasets/{hash}", s.instrument("datasets", s.handleDeleteDataset))
	s.mux.HandleFunc("/v1/algorithms", s.instrument("algorithms", s.handleAlgorithms))
	s.mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	s.preloadConsensus()
	return s
}

// preloadConsensus feeds every persisted consensus entry (and warm hint)
// into the in-memory consensus cache, so a restarted server's first repeat
// request is already a consensus_hit with zero solver runs.
func (s *Server) preloadConsensus() {
	if s.store == nil {
		return
	}
	for _, info := range s.store.List() {
		entries, warm, version, ok := s.store.Consensus(info.Hash)
		if !ok {
			continue
		}
		for specKey, e := range entries {
			s.consensus.Put(info.Hash, specKey, version, e.Result())
		}
		if warm != nil {
			s.consensus.PutWarmHint(info.Hash, warm.Result(), version)
		}
	}
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain marks the server as shutting down: /healthz turns 503 so load
// balancers stop routing here, while in-flight aggregations keep running
// (http.Server.Shutdown waits for them). Safe to call more than once.
func (s *Server) Drain() {
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
}

// InFlight returns the number of aggregation requests currently executing
// (tests poll it to assert prompt cancellation).
func (s *Server) InFlight() int64 { return s.metrics.inFlight.Load() }

// CacheStats exposes the session cache counters.
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// ApproxCacheStats exposes the approx-tier session cache counters.
func (s *Server) ApproxCacheStats() cache.Stats { return s.approx.Stats() }

// ConsensusStats exposes the consensus cache counters.
func (s *Server) ConsensusStats() cache.ConsensusStats { return s.consensus.Stats() }

// AggregateRequest is the POST /v1/aggregate body. The dataset fields are
// the rankings wire form (rankings.DatasetWire): "rankings" as bucket
// arrays, optional "n" and "names" — or "toplists", the approximation
// tier's compact shape (one best-first ID list per voter).
type AggregateRequest struct {
	// Spec is the canonical run description (rankagg.RunSpec, verbatim):
	// algorithm, seed, restarts, timeout_ms, workers in one nested object.
	// Its result-determining fields are the consensus cache's key material
	// — two requests whose specs normalize identically share one cached
	// result. The top-level fields below remain accepted as aliases; where
	// both are present, the spec wins. ("workers" is advisory only: the
	// server's token scheduler assigns the actual parallelism.)
	Spec *rankagg.RunSpec `json:"spec,omitempty"`
	// Algorithm is a registered algorithm name (GET /v1/algorithms).
	//
	// Deprecated: alias for Spec.Algorithm, kept for one release.
	Algorithm string `json:"algorithm,omitempty"`
	rankings.DatasetWire
	// TopLists carries the dataset as top-k lists instead of "rankings":
	// one ordered best-to-worst element-ID list per voter, no ties, each
	// covering only the elements that voter ranked (rankings.TopListsWire).
	// The decoded dataset is incomplete, so it is served by the matrix-free
	// approximation tier: a non-approx algorithm is substituted (400 under
	// -approx-mode off). Mutually exclusive with "rankings".
	TopLists [][]int `json:"toplists,omitempty"`
	// TimeoutMS bounds the run in milliseconds; it is clamped to the
	// server's max budget, which also applies when the field is absent. On
	// expiry the best incumbent is returned with deadline_hit set.
	//
	// Deprecated: alias for Spec.TimeoutMS, kept for one release.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Seed fixes the randomness of randomized algorithms.
	//
	// Deprecated: alias for Spec.Seed, kept for one release.
	Seed *int64 `json:"seed,omitempty"`
	// Restarts overrides the independent-run count of the algorithms that
	// take one.
	//
	// Deprecated: alias for Spec.Restarts, kept for one release.
	Restarts int `json:"restarts,omitempty"`
}

// resolveSpec folds the request into one rankagg.RunSpec: the nested spec
// object where present, with the deprecated top-level aliases filling the
// fields it leaves unset. The result is not yet normalized — the caller
// runs it through RunSpec.Normalize, the one place defaults resolve.
func (req *AggregateRequest) resolveSpec() rankagg.RunSpec {
	var sp rankagg.RunSpec
	if req.Spec != nil {
		sp = *req.Spec
	}
	if sp.Algorithm == "" {
		sp.Algorithm = req.Algorithm
	}
	if sp.Seed == nil {
		sp.Seed = req.Seed
	}
	if sp.Restarts == 0 {
		sp.Restarts = req.Restarts
	}
	if sp.TimeoutMS == 0 {
		sp.TimeoutMS = req.TimeoutMS
	}
	return sp
}

// AggregateResponse is the POST /v1/aggregate success body.
type AggregateResponse struct {
	Algorithm string `json:"algorithm"`
	// Consensus holds the consensus ranking as bucket arrays of element
	// IDs; ConsensusNames carries the same buckets as names when the
	// request supplied element names.
	Consensus      *rankings.Ranking `json:"consensus"`
	ConsensusNames [][]string        `json:"consensus_names,omitempty"`
	Score          int64             `json:"score"`
	Proved         bool              `json:"proved"`
	DeadlineHit    bool              `json:"deadline_hit,omitempty"`
	ElapsedMS      float64           `json:"elapsed_ms"`
	DatasetHash    string            `json:"dataset_hash"`
	// CacheHit reports that the request was answered from warm state: the
	// dataset's session (and pair matrix) was already cached, or the
	// consensus itself was (ConsensusHit).
	CacheHit bool `json:"cache_hit"`
	// ConsensusHit reports that the whole result came from the consensus
	// cache — an identical (dataset, spec) pair was served before, so no
	// solver ran for this request at all.
	ConsensusHit bool `json:"consensus_hit"`
	// Approx reports the consensus came from the matrix-free approximation
	// tier: no pair matrix was built, the score was computed per ranking,
	// and the algorithm may differ from the requested one (admission
	// routing substitutes rankagg.ApproxDefault's pick — Algorithm carries
	// what actually ran). The X-Rankagg-Tier response header says the same
	// ("approx" / "exact") without parsing the body.
	Approx bool                `json:"approx,omitempty"`
	N      int                 `json:"n"`
	M      int                 `json:"m"`
	Stats  rankagg.SearchStats `json:"stats"`
}

// errorResponse is the body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

// AlgorithmInfo is one entry of the GET /v1/algorithms listing.
type AlgorithmInfo struct {
	Name string `json:"name"`
	// Exact reports that the algorithm can prove optimality.
	Exact bool `json:"exact"`
}

// instrument wraps a handler with the request counter and latency
// metrics.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.metrics.observe(endpoint, rec.code, time.Since(start))
	}
}

// byteBudget is the per-request byte budget -max-elements sets: what an
// int32 pair matrix of that many elements costs, 12 bytes per pair. It
// saturates at math.MaxInt64 instead of overflowing, as the predicted
// sizes it is compared with do; 0 means no cap.
func byteBudget(maxElements int) int64 {
	if maxElements <= 0 {
		return 0
	}
	m := int64(maxElements)
	if m > math.MaxInt64/12/m {
		return math.MaxInt64
	}
	return 12 * m * m
}

// admitApprox charges an approximation-tier dataset's O(n) state — Lehmer
// lists, score totals, the scoring pass's positions — against the byte
// budget, and rejects it with 413 when it does not fit. A tiny body can
// declare a huge universe, so the check runs before the dataset is hashed
// or any state of size n exists. It reports whether the request may
// proceed.
func (s *Server) admitApprox(w http.ResponseWriter, d *rankings.Dataset) bool {
	if s.budget == 0 {
		return true
	}
	need := rankagg.PredictApproxBytes(d.N)
	if need <= s.budget {
		return true
	}
	s.metrics.rejectedApprox.Add(1)
	s.writeError(w, http.StatusRequestEntityTooLarge,
		fmt.Sprintf("dataset has %d elements and the matrix-free tier's per-element state would need %d bytes; the server cap is %d bytes (-max-elements %d) — shrink the universe or raise -max-elements",
			d.N, need, s.budget, s.maxElements))
	return false
}

// errMatrixBudget marks a PATCH delta that would grow the cached pair
// matrix past the -max-elements byte budget (backend promotion); the
// handler maps it to 413.
var errMatrixBudget = errors.New("matrix byte budget exceeded")

// statusClientClosedRequest is nginx's convention for "client closed the
// connection before the response"; the standard library has no name for
// it. It reaches no client — it only keeps the request counter honest.
const statusClientClosedRequest = 499

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req AggregateRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return
	}
	// One spec, every surface: the nested "spec" object (or its deprecated
	// top-level aliases) normalizes through rankagg.RunSpec.Normalize, the
	// same defaults resolution the CLI and the library use — and the
	// normalized spec's key is the consensus cache's key material.
	spec, err := req.resolveSpec().Normalize()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var (
		d *rankings.Dataset
		u *rankings.Universe
	)
	fromTopLists := len(req.TopLists) > 0
	if fromTopLists {
		if len(req.Rankings) > 0 {
			s.writeError(w, http.StatusBadRequest, "supply \"rankings\" or \"toplists\", not both")
			return
		}
		tw := rankings.TopListsWire{N: req.N, Names: req.Names, TopLists: req.TopLists}
		d, u, err = tw.Decode()
	} else {
		d, u, err = req.DatasetWire.Decode()
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveAggregateOn(w, r, spec, d, u, fromTopLists)
}

// serveAggregateOn is the shared admission + solve flow behind both
// aggregation surfaces: POST /v1/aggregate (dataset inline in the body)
// and POST /v1/datasets/{hash}/aggregate (dataset resolved from the cache
// or the durable store). d is the dataset to aggregate, u its universe
// when element names are known.
func (s *Server) serveAggregateOn(w http.ResponseWriter, r *http.Request, spec rankagg.RunSpec, d *rankings.Dataset, u *rankings.Universe, fromTopLists bool) {
	// Tier admission. Requests for a matrix-free algorithm are approx-tier
	// by definition; top-list payloads decode to incomplete datasets only
	// that tier can serve; and everything else is admitted to the exact
	// tier only if its projected pair matrix fits the byte budget — a tiny
	// body can declare a huge universe, and the O(n²) build is neither
	// budgeted by the cache (entries are weighed after the build) nor
	// cancellable, so the check runs before any allocation. The budget is
	// what an int32 matrix of -max-elements elements would cost; each
	// request is charged its REAL projected bytes under the server's
	// matrix mode. Over-budget datasets are diverted to the matrix-free
	// tier under -approx-mode auto (routed, with a substituted algorithm)
	// and rejected with 413 under off.
	runName := spec.Algorithm
	approxTier := rankagg.MatrixFree(runName)
	routed := false
	if !approxTier && fromTopLists {
		// Incomplete datasets — top-list payloads, and stored toplists
		// datasets resolved by hash (the hash surface raises fromTopLists
		// for them) — only the approximation tier serves. An inline
		// "rankings" payload that decodes incomplete keeps its 400 from the
		// exact leg: "toplists" is the wire for partial data.
		if s.approxMode == ApproxOff {
			s.writeError(w, http.StatusBadRequest,
				fmt.Sprintf("the dataset is incomplete (top-k lists) and only the approximation tier serves it, but -approx-mode off disables substituting it for %q: request a matrix-free algorithm (lehmer, avgrank, scores) or POST normalized \"rankings\"", runName))
			return
		}
		approxTier = true
		runName = rankagg.ApproxDefault(d)
	}
	if !approxTier {
		overBudget := false
		var need int64
		if s.budget > 0 {
			need = rankagg.PredictMatrixBytes(s.matrixMode, d.N, d.M(), d.Complete())
			overBudget = need > s.budget
		}
		switch {
		case s.approxMode == ApproxForce:
			approxTier = true
			routed = overBudget
			runName = rankagg.ApproxDefault(d)
		case overBudget && s.approxMode == ApproxAuto:
			approxTier = true
			routed = true
			runName = rankagg.ApproxDefault(d)
		case overBudget:
			s.metrics.rejectedMatrix.Add(1)
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("dataset has %d elements and its %s pair matrix would need %d bytes; the server cap is %d elements at int32's 12 bytes/pair (%d bytes) — shrink the dataset, raise -max-elements, or serve it matrix-free (-approx-mode auto)",
					d.N, s.matrixMode, need, s.maxElements, s.budget))
			return
		}
	}
	if approxTier && !s.admitApprox(w, d) {
		return
	}

	// The request's whole budget — queueing for a worker token, a possible
	// matrix build, and the run itself — is one deadline, and the context
	// also dies with the client connection.
	budget := s.maxTimeout
	if spec.TimeoutMS > 0 {
		if t := time.Duration(spec.TimeoutMS) * time.Millisecond; t < budget {
			budget = t
		}
	}
	ctx, cancelBudget := context.WithTimeout(r.Context(), budget)
	defer cancelBudget()

	if approxTier {
		tokens, err := s.acquireWorkers(ctx)
		if err != nil {
			if r.Context().Err() != nil {
				// Client gone while queued; nobody reads the reply, but
				// record the abort honestly (nginx's 499) instead of a
				// default 200.
				s.metrics.cancels.Add(1)
				w.WriteHeader(statusClientClosedRequest)
				return
			}
			s.metrics.queueRejects.Add(1)
			s.writeError(w, http.StatusServiceUnavailable, "worker budget exhausted within the request's time budget")
			return
		}
		defer s.releaseWorkers(tokens)
		s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)
		s.serveApprox(ctx, w, r, spec, d, u, runName, routed, tokens)
		return
	}

	start := time.Now()
	hash := d.Hash()
	specKey, err := spec.Key()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// sessHit records the session-cache outcome observed by the solve
	// closure; it stays false on a consensus hit (no session lookup at
	// all) and for waiters coalesced onto another request's solve.
	var sessHit bool
	res, consensusHit, err := s.consensus.GetOrRun(hash, specKey, func() (*rankagg.Result, uint64, error) {
		// Worker tokens are acquired inside the single flight: a consensus
		// hit — and every waiter coalesced onto this solve — never queues
		// for the worker budget at all.
		tokens, err := s.acquireWorkers(ctx)
		if err != nil {
			return nil, 0, err
		}
		defer s.releaseWorkers(tokens)
		s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)

		sess, hit, err := s.cache.GetOrBuild(hash, func() (*rankagg.Session, error) {
			// A persisted dataset reconstructs from the durable store —
			// snapshot load plus delta-log replay through the same
			// Pairs.Add/Remove path a live PATCH takes, byte-identical to
			// the fresh build below — so an evicted session (or a restarted
			// process) costs a replay, not a 404. A store error falls back
			// to the fresh build: d is in hand on this surface.
			if s.store != nil && s.store.Has(hash) {
				if sess, _, err := s.store.Rebuild(hash); err == nil {
					s.metrics.matrixBytes.Store(sess.MatrixBytes())
					return sess, nil
				}
			}
			sess, err := rankagg.NewSession(d, rankagg.WithMatrixMode(s.matrixMode))
			if err != nil {
				return nil, err
			}
			sess.Pairs() // eager O(m·n²) build inside the single flight
			s.metrics.matrixBytes.Store(sess.MatrixBytes())
			return sess, nil
		})
		if err != nil {
			// NewSession rejections are input problems (incomplete dataset,
			// structural invalidity that slipped past the wire checks).
			return nil, 0, inputError{err}
		}
		sessHit = hit
		version := sess.Version()

		opts := []rankagg.Option{rankagg.WithWorkers(tokens)}
		if rankagg.CanWarmStart(spec.Algorithm) {
			// A PATCH on this dataset's ancestor left its best pre-PATCH
			// consensus as a hint; spend it (consume-once) on this solve.
			if hint := s.consensus.TakeWarmHint(hash); hint != nil {
				opts = append(opts, rankagg.WithWarmStart(hint.Consensus))
			}
		}
		// The response is labeled with the POSTed dataset's hash, so the
		// run must happen on exactly that dataset — but the cached session
		// is dynamic, and a concurrent PATCH may rotate it away between
		// the lookup above and the run below. Pin the run to a snapshot:
		// capture the matrix, confirm the session still hashes to the
		// request, and hand the snapshot back through WithPairs — the run
		// checks its version stamp against the session under the same lock
		// that picks the dataset, so a mutation sneaking in between fails
		// with ErrStalePairs instead of mislabeling the result (or
		// poisoning the consensus cache under the wrong hash).
		var res *rankagg.Result
		snap := sess.Pairs()
		if sess.Hash() == hash {
			res, err = sess.RunSpec(ctx, spec, append(opts, rankagg.WithPairs(snap))...)
			if errors.Is(err, rankagg.ErrStalePairs) {
				res = nil
			}
		}
		if res == nil && (err == nil || errors.Is(err, rankagg.ErrStalePairs)) {
			// Lost the race: the cached session now holds a different
			// dataset. Serve this request from a private session over its
			// own rankings (a fresh O(m·n²) build — the same cost as a
			// plain cache miss) rather than fighting over the cache entry.
			sessHit = false
			var priv *rankagg.Session
			priv, err = rankagg.NewSession(d, rankagg.WithMatrixMode(s.matrixMode))
			if err != nil {
				return nil, 0, inputError{err}
			}
			version = priv.Version()
			res, err = priv.RunSpec(ctx, spec, opts...)
		}
		if err != nil {
			return nil, 0, err
		}
		if res.Stats.WarmStart {
			s.metrics.warmStarts.Add(1)
		}
		// Persist the result alongside the dataset (inside the single
		// flight, so coalesced waiters don't re-write it). The store
		// applies the same exclusions the in-memory cache does — nothing
		// deadline-cut or approx — and silently drops results for hashes
		// it no longer serves (non-persisted datasets, raced rotations).
		if s.store != nil {
			s.store.SaveConsensus(hash, specKey, store.WireFromResult(res))
		}
		return res, version, nil
	})
	if err != nil {
		var ie inputError
		switch {
		case errors.As(err, &ie):
			s.writeError(w, http.StatusBadRequest, ie.Error())
		case errors.Is(err, context.Canceled):
			if r.Context().Err() != nil {
				// Client disconnected (queued or mid-search); the run
				// stopped promptly and there is nobody to answer, but the
				// metrics must not count the aborted run as a 200.
				s.metrics.cancels.Add(1)
				w.WriteHeader(statusClientClosedRequest)
			} else {
				// Coalesced onto an identical in-flight request whose own
				// client disconnected. This client is still here; a retry
				// runs the solve itself.
				s.writeError(w, http.StatusServiceUnavailable, "the identical in-flight request this one coalesced with was cancelled; retry")
			}
		case errors.Is(err, context.DeadlineExceeded):
			// The whole time budget went to queueing for a worker token.
			s.metrics.queueRejects.Add(1)
			s.writeError(w, http.StatusServiceUnavailable, "worker budget exhausted within the request's time budget")
		default:
			s.log.Printf("aggregate %s on %s: %v", spec.Algorithm, hash, err)
			s.writeError(w, http.StatusUnprocessableEntity, err.Error())
		}
		return
	}
	if res.DeadlineHit {
		s.metrics.deadlineHits.Add(1)
	}

	resp := AggregateResponse{
		Algorithm:    res.Algorithm,
		Consensus:    res.Consensus,
		Score:        res.Score,
		Proved:       res.Proved,
		DeadlineHit:  res.DeadlineHit,
		ElapsedMS:    float64(time.Since(start).Nanoseconds()) / 1e6,
		DatasetHash:  hash,
		CacheHit:     consensusHit || sessHit,
		ConsensusHit: consensusHit,
		N:            d.N,
		M:            d.M(),
		Stats:        res.Stats,
	}
	if u != nil {
		resp.ConsensusNames = rankings.BucketNames(res.Consensus, u)
	}
	w.Header().Set("X-Rankagg-Tier", "exact")
	s.writeJSON(w, http.StatusOK, resp)
}

// inputError marks a solve failure caused by the request's own dataset (a
// NewSession rejection inside the consensus single flight); the handler
// maps it to 400 where run failures are 422.
type inputError struct{ err error }

func (e inputError) Error() string { return e.err.Error() }
func (e inputError) Unwrap() error { return e.err }

// serveApprox is the matrix-free leg of handleAggregate, structured like
// the exact leg: the result is single-flighted through the consensus cache
// (approx runs are deterministic for a (dataset, spec) — no seed, no
// search — so a repeat request is an O(1) consensus hit), and on a miss
// the solve runs on the approx-tier session cache's entry for the hash —
// the delta-maintainable state a PATCH keeps current — rebuilt by
// delta-log replay for persisted datasets. runName is the algorithm that
// actually executes (the requested one, or the admission router's
// substitution); the response is marked with approx: true plus the
// X-Rankagg-Tier header. The worker tokens are already held by the caller
// and released when it returns; the encode passes shard across them.
func (s *Server) serveApprox(ctx context.Context, w http.ResponseWriter, r *http.Request, spec rankagg.RunSpec, d *rankings.Dataset, u *rankings.Universe, runName string, routed bool, tokens int) {
	s.metrics.approxRequests.Add(1)
	if routed {
		s.metrics.approxRouted.Add(1)
	}
	start := time.Now()
	// The admission router may have substituted the algorithm; the token
	// scheduler, not the client, decides the parallelism.
	spec.Algorithm = runName
	hash := d.Hash()
	specKey, err := spec.Key()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var sessHit bool
	res, consensusHit, err := s.consensus.GetOrRun(hash, specKey, func() (*rankagg.Result, uint64, error) {
		sess, hit, err := s.approx.GetOrBuild(hash, func() (*rankagg.ApproxSession, error) {
			// A persisted dataset reconstructs by snapshot load + delta-log
			// replay through ApproxSession.ApplyDelta — the same path a live
			// PATCH takes — so an evicted approx session (or a restarted
			// process) resumes exactly where it left off. A store error
			// falls back to a fresh session: d is in hand.
			if s.store != nil && s.store.Has(hash) {
				if sess, _, err := s.store.RebuildApprox(hash); err == nil {
					return sess, nil
				}
			}
			return rankagg.NewApproxSession(d)
		})
		if err != nil {
			return nil, 0, inputError{err}
		}
		sessHit = hit
		version := sess.Version()
		s.metrics.encodeWorkers.Store(int64(tokens))
		// Pin the run to the request's hash: the cached session is dynamic,
		// and a concurrent PATCH may rotate it away between the lookup above
		// and the run — the pin fails under the session lock instead of
		// mislabeling the result (or poisoning the consensus cache).
		res, err := sess.RunSpecPinned(ctx, hash, spec, rankagg.WithWorkers(tokens))
		if errors.Is(err, rankagg.ErrStalePairs) {
			// Lost the race; serve from a private session over the request's
			// own rankings rather than fighting over the cache entry.
			sessHit = false
			var priv *rankagg.ApproxSession
			priv, err = rankagg.NewApproxSession(d)
			if err != nil {
				return nil, 0, inputError{err}
			}
			version = priv.Version()
			res, err = priv.RunSpec(ctx, spec, rankagg.WithWorkers(tokens))
		}
		if err != nil {
			return nil, 0, err
		}
		if s.store != nil {
			s.store.SaveConsensus(hash, specKey, store.WireFromResult(res))
		}
		return res, version, nil
	})
	if err != nil {
		var ie inputError
		switch {
		case errors.As(err, &ie):
			s.writeError(w, http.StatusBadRequest, ie.Error())
		case errors.Is(err, context.Canceled):
			if r.Context().Err() != nil {
				s.metrics.cancels.Add(1)
				w.WriteHeader(statusClientClosedRequest)
			} else {
				s.writeError(w, http.StatusServiceUnavailable, "the identical in-flight request this one coalesced with was cancelled; retry")
			}
		default:
			s.log.Printf("approx aggregate %s on %s: %v", runName, hash, err)
			s.writeError(w, http.StatusUnprocessableEntity, err.Error())
		}
		return
	}
	if res.DeadlineHit {
		s.metrics.deadlineHits.Add(1)
	}
	resp := AggregateResponse{
		Algorithm:    res.Algorithm,
		Consensus:    res.Consensus,
		Score:        res.Score,
		DeadlineHit:  res.DeadlineHit,
		ElapsedMS:    float64(time.Since(start).Nanoseconds()) / 1e6,
		DatasetHash:  hash,
		CacheHit:     consensusHit || sessHit,
		ConsensusHit: consensusHit,
		Approx:       true,
		N:            d.N,
		M:            d.M(),
		Stats:        res.Stats,
	}
	if u != nil {
		resp.ConsensusNames = rankings.BucketNames(res.Consensus, u)
	}
	w.Header().Set("X-Rankagg-Tier", "approx")
	s.writeJSON(w, http.StatusOK, resp)
}

// PatchOp is one operation of a batch PATCH: exactly one of Add or Remove
// must be set.
type PatchOp struct {
	Add    *rankings.Ranking `json:"add,omitempty"`
	Remove *rankings.Ranking `json:"remove,omitempty"`
}

// PatchRequest is the PATCH /v1/datasets/{hash} body: ranking deltas to
// apply to the dataset identified by the path hash. The batch wire is
// "ops" — a list of single-ranking operations applied ATOMICALLY as one
// delta: one delta-log record, one session clone, one hash rotation, and
// one warm-started re-solve for the whole burst, however many rankings it
// carries. Within the batch, removals are matched by bucket-order equality
// against the current rankings (each matched at most once) and applied
// before the additions, which append in order; added rankings must cover
// the dataset's whole universe. The whole batch succeeds or fails
// together — a delta that fails validation mutates nothing and logs
// nothing.
type PatchRequest struct {
	Ops []PatchOp `json:"ops,omitempty"`
	// Add and Remove are the legacy single-list wire, equivalent to ops
	// with all removals first. Mutually exclusive with Ops.
	//
	// Deprecated: aliases for Ops, kept for one release.
	Add    []*rankings.Ranking `json:"add,omitempty"`
	Remove []*rankings.Ranking `json:"remove,omitempty"`
}

// delta flattens the request into the one (add, remove) pair the delta
// machinery consumes, rejecting bodies that mix the two wire forms.
func (req *PatchRequest) delta() (add, remove []*rankings.Ranking, err error) {
	if len(req.Ops) == 0 {
		return req.Add, req.Remove, nil
	}
	if len(req.Add) > 0 || len(req.Remove) > 0 {
		return nil, nil, errors.New("supply \"ops\" or the legacy \"add\"/\"remove\" lists, not both")
	}
	for i, op := range req.Ops {
		switch {
		case op.Add != nil && op.Remove == nil:
			add = append(add, op.Add)
		case op.Remove != nil && op.Add == nil:
			remove = append(remove, op.Remove)
		default:
			return nil, nil, fmt.Errorf("ops[%d]: exactly one of \"add\" or \"remove\" per op", i)
		}
	}
	return add, remove, nil
}

// PatchResponse is the PATCH success body. DatasetHash is the mutated
// dataset's new content hash — the handle for further requests, repeated
// in the Location header (see the package doc's hash-rotation contract).
type PatchResponse struct {
	BaseHash    string `json:"base_hash"`
	DatasetHash string `json:"dataset_hash"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	Added       int    `json:"added"`
	Removed     int    `json:"removed"`
	// DeltaApplied reports the mutation went through the O(n²) delta path
	// (always true on success; the field keeps smoke checks explicit).
	DeltaApplied bool `json:"delta_applied"`
	// Persisted reports the delta was fsync'd to the dataset's delta log
	// before anything in memory moved: it survives a crash or restart.
	Persisted bool `json:"persisted,omitempty"`
	// MatrixBuilds and MatrixDeltas expose the session's counters: a PATCH
	// of a live session must move MatrixDeltas, never MatrixBuilds. Both
	// are 0 when the base session was not cached (a persisted dataset
	// PATCHed cold — the store accepted the delta, and the next
	// aggregation rebuilds by replay).
	MatrixBuilds int `json:"matrix_builds"`
	MatrixDeltas int `json:"matrix_deltas"`
	// Approx reports the delta was absorbed by the approximation tier's
	// incremental session state — O(n log n) per ranking, no pair matrix
	// anywhere (approx-routed and toplists datasets, which admit partial
	// adds). ApproxDeltas is that session's cumulative delta count.
	Approx       bool    `json:"approx,omitempty"`
	ApproxDeltas int     `json:"approx_deltas,omitempty"`
	ElapsedMS    float64 `json:"elapsed_ms"`
}

// handlePatchDataset applies one atomic delta to the dataset at the path
// hash. For a persisted dataset the delta is write-ahead: it is validated
// and appended (fsync'd) to the store's delta log BEFORE any in-memory
// state moves, so a crash at any later point replays it deterministically
// on restart — and a base session that fell out of the LRU is no longer a
// 404, because the store holds the truth. For cache-only datasets the
// pre-store behavior stands: the cached session mutates in place, re-keyed
// to the rotated hash atomically with the mutation (cache.Mutate), and a
// cache miss is a 404 falling back to a full POST.
func (s *Server) handlePatchDataset(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	var req PatchRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return
	}
	add, remove, err := req.delta()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(add) == 0 && len(remove) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty delta: supply \"ops\" (or the legacy \"add\"/\"remove\" lists)")
		return
	}
	start := time.Now()
	if s.store != nil && s.store.Has(hash) {
		s.patchPersisted(w, hash, add, remove, start)
		return
	}
	// Cache-only dataset (or no store at all): the session IS the truth.
	// The response fields are captured inside the closure, while this
	// request exclusively owns the detached entry: once Mutate re-inserts
	// it, a concurrent PATCH may mutate the session again, and reading
	// n/m/the counters afterwards would pair this request's hash with a
	// later mutation's state.
	var n, m, matrixBuilds, matrixDeltas int
	var matrixBytes int64
	var version uint64
	_, newKey, found, err := s.cache.Mutate(hash, func(sess *rankagg.Session) (string, error) {
		// A delta can promote the matrix backend (int16 → int32 when m
		// crosses 32767), growing the allocation the dataset was admitted
		// under — re-check the byte budget BEFORE mutating, so rejection
		// leaves the session untouched and the entry restored. Promotions
		// are one-way, so the post-delta size is at least the current one.
		if err := s.checkDeltaBudget(sess.Dataset(), sess.MatrixBytes(), len(add), len(remove)); err != nil {
			return "", err
		}
		if err := sess.ApplyDelta(add, remove); err != nil {
			return "", err
		}
		d := sess.Dataset()
		n, m = d.N, d.M()
		matrixBuilds, matrixDeltas = sess.MatrixBuilds(), sess.MatrixDeltas()
		matrixBytes = sess.MatrixBytes()
		version = sess.Version()
		return sess.Hash(), nil
	})
	if !found {
		// Not a matrix-tier dataset — it may live in the approx tier
		// (admission-routed, or an incomplete toplists dataset that can
		// never hold a matrix at all).
		s.patchApprox(w, hash, add, remove, start)
		return
	}
	if err != nil {
		s.writePatchError(w, err)
		return
	}
	s.metrics.deltaApplied.Add(1)
	// A delta can promote the backend (int16 → int32, tied-plane
	// materialization); keep the gauge tracking the real size.
	s.metrics.matrixBytes.Store(matrixBytes)
	s.harvestWarmHint(hash, newKey, version)
	w.Header().Set("Location", "/v1/datasets/"+newKey)
	s.writeJSON(w, http.StatusOK, PatchResponse{
		BaseHash:     hash,
		DatasetHash:  newKey,
		N:            n,
		M:            m,
		Added:        len(add),
		Removed:      len(remove),
		DeltaApplied: true,
		MatrixBuilds: matrixBuilds,
		MatrixDeltas: matrixDeltas,
		ElapsedMS:    float64(time.Since(start).Nanoseconds()) / 1e6,
	})
}

// patchApprox is the PATCH leg for cache-only approx-tier datasets: the
// delta folds into the session's incremental aggregation state in
// O(n log n) per ranking (multiset insert/delete per Lehmer coordinate,
// signed score accumulation) — there is no matrix, so no byte-budget
// re-check either. Partial adds are legal exactly when the dataset is a
// toplists one (ApproxSession.ApplyDelta validates). The entry re-keys to
// the rotated hash atomically, like the matrix leg; a miss here too is the
// 404 the client answers with a full POST.
func (s *Server) patchApprox(w http.ResponseWriter, hash string, add, remove []*rankings.Ranking, start time.Time) {
	var n, m, approxDeltas int
	var version uint64
	_, newKey, found, err := s.approx.Mutate(hash, func(sess *rankagg.ApproxSession) (string, error) {
		if err := sess.ApplyDelta(add, remove); err != nil {
			return "", err
		}
		d := sess.Dataset()
		n, m = d.N, d.M()
		approxDeltas = sess.DeltaCount()
		version = sess.Version()
		return sess.Hash(), nil
	})
	if !found {
		s.metrics.deltaMisses.Add(1)
		s.writeError(w, http.StatusNotFound,
			fmt.Sprintf("dataset %s is not cached; POST the full dataset to /v1/aggregate, or PUT it to /v1/datasets to persist it", hash))
		return
	}
	if err != nil {
		s.writePatchError(w, err)
		return
	}
	s.metrics.deltaApplied.Add(1)
	s.metrics.approxDeltas.Add(1)
	s.harvestWarmHint(hash, newKey, version)
	w.Header().Set("Location", "/v1/datasets/"+newKey)
	s.writeJSON(w, http.StatusOK, PatchResponse{
		BaseHash:     hash,
		DatasetHash:  newKey,
		N:            n,
		M:            m,
		Added:        len(add),
		Removed:      len(remove),
		DeltaApplied: true,
		Approx:       true,
		ApproxDeltas: approxDeltas,
		ElapsedMS:    float64(time.Since(start).Nanoseconds()) / 1e6,
	})
}

// patchPersisted is the PATCH leg for store-backed datasets: validate and
// budget-check first (an append-then-reject would poison the log), append
// the delta as ONE fsync'd log record — the write-ahead point — and only
// then touch the cache. The cached session, if present, mutates through
// the same ApplyDelta the store's validation mirrored; if it was evicted,
// nothing rebuilds eagerly — the next aggregation reconstructs by replay.
func (s *Server) patchPersisted(w http.ResponseWriter, hash string, add, remove []*rankings.Ranking, start time.Time) {
	d0, _, err := s.store.Dataset(hash)
	if err != nil {
		s.writeError(w, http.StatusConflict,
			fmt.Sprintf("dataset %s rotated concurrently; re-GET the dataset for its current hash", hash))
		return
	}
	// Incomplete (toplists) datasets never build a matrix, so there is no
	// byte budget to re-check — only the approx tier serves them.
	if d0.Complete() {
		curBytes := int64(0)
		if sess, ok := s.cache.Peek(hash); ok {
			curBytes = sess.MatrixBytes()
		}
		if err := s.checkDeltaBudget(d0, curBytes, len(add), len(remove)); err != nil {
			s.writePatchError(w, err)
			return
		}
	}
	newHash, info, err := s.store.AppendPatch(hash, add, remove)
	if err != nil {
		switch {
		case errors.Is(err, store.ErrNotFound), errors.Is(err, store.ErrStaleHash):
			s.writeError(w, http.StatusConflict,
				fmt.Sprintf("dataset %s rotated concurrently; re-GET the dataset for its current hash", hash))
		default:
			s.writePatchError(w, err)
		}
		return
	}
	// The delta is durable. Apply it to the cached session too — and if
	// the session somehow disagrees with the store (it cannot, short of a
	// bug: both run the same validation and the same delta semantics), the
	// store wins: drop the entry and let the next request rebuild by
	// replay.
	var matrixBuilds, matrixDeltas int
	var matrixBytes int64
	_, newKey, found, merr := s.cache.Mutate(hash, func(sess *rankagg.Session) (string, error) {
		if err := sess.ApplyDelta(add, remove); err != nil {
			return "", err
		}
		matrixBuilds, matrixDeltas = sess.MatrixBuilds(), sess.MatrixDeltas()
		matrixBytes = sess.MatrixBytes()
		return sess.Hash(), nil
	})
	if found && merr == nil {
		s.metrics.matrixBytes.Store(matrixBytes)
		if newKey != newHash {
			s.cache.Remove(newKey)
			found = false
		}
	} else if found {
		s.cache.Remove(hash)
		found = false
	}
	if !found {
		matrixBuilds, matrixDeltas = 0, 0
	}
	// The approx-tier session, if cached, absorbs the same delta through
	// its incremental state — with the same store-wins rule on any
	// disagreement: drop the entry and let the next aggregation rebuild by
	// delta-log replay (which runs this very delta path).
	var approxDeltas int
	approxApplied := false
	_, aKey, aFound, aErr := s.approx.Mutate(hash, func(sess *rankagg.ApproxSession) (string, error) {
		if err := sess.ApplyDelta(add, remove); err != nil {
			return "", err
		}
		approxDeltas = sess.DeltaCount()
		return sess.Hash(), nil
	})
	switch {
	case aFound && aErr == nil && aKey == newHash:
		approxApplied = true
		s.metrics.approxDeltas.Add(1)
	case aFound && aErr == nil:
		s.approx.Remove(aKey)
	case aFound:
		s.approx.Remove(hash)
	}
	if !approxApplied {
		approxDeltas = 0
	}
	s.metrics.deltaApplied.Add(1)
	s.harvestWarmHint(hash, newHash, info.Version)
	w.Header().Set("Location", "/v1/datasets/"+newHash)
	s.writeJSON(w, http.StatusOK, PatchResponse{
		BaseHash:     hash,
		DatasetHash:  newHash,
		N:            info.N,
		M:            info.M,
		Added:        len(add),
		Removed:      len(remove),
		DeltaApplied: true,
		Persisted:    true,
		MatrixBuilds: matrixBuilds,
		MatrixDeltas: matrixDeltas,
		Approx:       approxApplied,
		ApproxDeltas: approxDeltas,
		ElapsedMS:    float64(time.Since(start).Nanoseconds()) / 1e6,
	})
}

// checkDeltaBudget re-checks the matrix byte budget a delta could grow
// past (backend promotion is one-way, so the post-delta size is at least
// curBytes). d0 is the pre-delta dataset; nAdd/nRemove size the delta.
func (s *Server) checkDeltaBudget(d0 *rankings.Dataset, curBytes int64, nAdd, nRemove int) error {
	if s.budget == 0 {
		return nil
	}
	m2 := d0.M() + nAdd - nRemove
	need := rankagg.PredictMatrixBytes(s.matrixMode, d0.N, m2, d0.Complete())
	if curBytes > need {
		need = curBytes
	}
	if need > s.budget {
		return fmt.Errorf("%w: the delta would grow the pair matrix to %d bytes, over the server budget of %d (-max-elements %d)",
			errMatrixBudget, need, s.budget, s.maxElements)
	}
	return nil
}

// writePatchError maps a rejected delta to its status: conflicts with the
// dataset's current content are 409 (the caller holds a stale view), a
// delta that would blow the matrix byte budget is 413 like the equivalent
// POST, and structurally invalid rankings are 400. In every case nothing
// was mutated and nothing was logged.
func (s *Server) writePatchError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, rankagg.ErrRankingNotFound) || errors.Is(err, rankagg.ErrDatasetEmptied):
		code = http.StatusConflict
	case errors.Is(err, errMatrixBudget):
		code = http.StatusRequestEntityTooLarge
		s.metrics.rejectedDelta.Add(1)
	}
	s.writeError(w, code, err.Error())
}

// harvestWarmHint retires the base hash's stored consensus results after a
// rotation: they can never be hit again, so drop them now (freeing their
// budget) and keep the best one as the rotated hash's consume-once
// warm-start hint — the next warm-startable solve seeds from the
// pre-PATCH optimum instead of cold restarts. An approx-tier result is
// never planted as a hint: only exact-tier solvers consume hints, and the
// approx session carries its own delta-adjusted warm scores internally.
func (s *Server) harvestWarmHint(oldHash, newHash string, version uint64) {
	if _, warm := s.consensus.InvalidateDataset(oldHash); warm != nil && !warm.Approx && newHash != oldHash {
		s.consensus.PutWarmHint(newHash, warm, version)
	}
}

// DatasetInfoResponse is the GET /v1/datasets/{hash} success body: the
// cached session's metadata, so callers can introspect what a PATCH
// rotated — the hash rotation was previously write-only.
type DatasetInfoResponse struct {
	DatasetHash string `json:"dataset_hash"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	// Version is the session's mutation version: +1 per ranking added or
	// removed since the session was built.
	Version uint64 `json:"version"`
	// MatrixLayout is the pair matrix's storage layout in use ("" while no
	// matrix is built); MatrixBytes its backing size.
	MatrixLayout string `json:"matrix_layout,omitempty"`
	MatrixBytes  int64  `json:"matrix_bytes"`
	MatrixBuilds int    `json:"matrix_builds"`
	MatrixDeltas int    `json:"matrix_deltas"`
	// CachedConsensus counts this dataset's stored results in the
	// consensus cache; WarmHint reports a pending warm-start hint (the
	// best pre-PATCH consensus, waiting for the next solve).
	CachedConsensus int  `json:"cached_consensus"`
	WarmHint        bool `json:"warm_hint"`
	// Approx reports the approximation tier's incremental session is live
	// for this dataset; ApproxStateBytes is its resident aggregation-state
	// size and ApproxDeltas how many PATCH deltas it has absorbed in place.
	Approx           bool  `json:"approx,omitempty"`
	ApproxStateBytes int64 `json:"approx_state_bytes,omitempty"`
	ApproxDeltas     int   `json:"approx_deltas,omitempty"`
	// Cached reports a live session is in an LRU — the matrix-tier cache,
	// or the approx-tier one (Approx says which); Persisted that the
	// durable store holds the dataset (either alone suffices to serve it).
	// LogRecords is the persisted dataset's pending delta-log length and
	// StoreBytes its on-disk footprint (snapshot + log).
	Cached     bool  `json:"cached"`
	Persisted  bool  `json:"persisted"`
	LogRecords int   `json:"log_records,omitempty"`
	StoreBytes int64 `json:"store_bytes,omitempty"`
}

// handleDatasetInfo reports the dataset at the path hash without
// perturbing anything: the cache lookup is a Peek (no LRU move, no
// hit/miss counting) and the store lookup reads metadata only. A dataset
// held by neither is a 404. An evicted-but-persisted dataset answers from
// the store with Cached false — the GET that previously 404ed cold.
func (s *Server) handleDatasetInfo(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	resp := DatasetInfoResponse{DatasetHash: hash}
	sess, cached := s.cache.Peek(hash)
	if cached {
		d := sess.Dataset()
		resp.N, resp.M = d.N, d.M()
		resp.Version = sess.Version()
		resp.MatrixLayout = sess.MatrixLayout()
		resp.MatrixBytes = sess.MatrixBytes()
		resp.MatrixBuilds = sess.MatrixBuilds()
		resp.MatrixDeltas = sess.MatrixDeltas()
		resp.Cached = true
	}
	if asess, ok := s.approx.Peek(hash); ok {
		resp.Approx = true
		resp.ApproxStateBytes = asess.StateBytes()
		resp.ApproxDeltas = asess.DeltaCount()
		if !cached {
			d := asess.Dataset()
			resp.N, resp.M = d.N, d.M()
			resp.Version = asess.Version()
		}
		cached = true
		resp.Cached = true
	}
	if s.store != nil {
		if info, ok := s.store.Info(hash); ok {
			resp.Persisted = true
			resp.LogRecords = info.LogRecords
			resp.StoreBytes = info.Bytes
			if !cached {
				resp.N, resp.M = info.N, info.M
				resp.Version = info.Version
			}
		}
	}
	if !resp.Cached && !resp.Persisted {
		s.writeError(w, http.StatusNotFound,
			fmt.Sprintf("dataset %s is neither cached nor persisted", hash))
		return
	}
	resp.CachedConsensus, resp.WarmHint = s.consensus.DatasetEntries(hash)
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	names := rankagg.Algorithms()
	out := make([]AlgorithmInfo, 0, len(names))
	for _, n := range names {
		a, err := rankagg.NewAggregator(n)
		if err != nil {
			continue
		}
		_, exact := a.(rankagg.ExactAggregator)
		out = append(out, AlgorithmInfo{Name: n, Exact: exact})
	}
	s.writeJSON(w, http.StatusOK, map[string][]AlgorithmInfo{"algorithms": out})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.draining:
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	default:
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, func(w io.Writer) {
		st := s.cache.Stats()
		fmt.Fprintf(w, "# HELP rankagg_cache_hits_total Session cache lookups answered by a ready entry.\n")
		fmt.Fprintf(w, "# TYPE rankagg_cache_hits_total counter\n")
		fmt.Fprintf(w, "rankagg_cache_hits_total %d\n", st.Hits)
		fmt.Fprintf(w, "# HELP rankagg_cache_misses_total Session cache lookups that found no ready entry.\n")
		fmt.Fprintf(w, "# TYPE rankagg_cache_misses_total counter\n")
		fmt.Fprintf(w, "rankagg_cache_misses_total %d\n", st.Misses)
		fmt.Fprintf(w, "# HELP rankagg_cache_matrix_builds_total Pair matrices built on behalf of the cache.\n")
		fmt.Fprintf(w, "# TYPE rankagg_cache_matrix_builds_total counter\n")
		fmt.Fprintf(w, "rankagg_cache_matrix_builds_total %d\n", st.Builds)
		fmt.Fprintf(w, "# HELP rankagg_cache_evictions_total Sessions evicted to satisfy the cache budgets.\n")
		fmt.Fprintf(w, "# TYPE rankagg_cache_evictions_total counter\n")
		fmt.Fprintf(w, "rankagg_cache_evictions_total %d\n", st.Evictions)
		fmt.Fprintf(w, "# HELP rankagg_cache_rekeys_total Cache entries re-keyed after a PATCH rotated the dataset hash.\n")
		fmt.Fprintf(w, "# TYPE rankagg_cache_rekeys_total counter\n")
		fmt.Fprintf(w, "rankagg_cache_rekeys_total %d\n", st.Rekeys)
		fmt.Fprintf(w, "# HELP rankagg_cache_entries Sessions currently cached.\n")
		fmt.Fprintf(w, "# TYPE rankagg_cache_entries gauge\n")
		fmt.Fprintf(w, "rankagg_cache_entries %d\n", st.Entries)
		fmt.Fprintf(w, "# HELP rankagg_cache_bytes Pair-matrix bytes currently cached.\n")
		fmt.Fprintf(w, "# TYPE rankagg_cache_bytes gauge\n")
		fmt.Fprintf(w, "rankagg_cache_bytes %d\n", st.Bytes)
		as := s.approx.Stats()
		fmt.Fprintf(w, "# HELP rankagg_approx_cache_hits_total Approx-tier session cache lookups answered by a ready entry.\n")
		fmt.Fprintf(w, "# TYPE rankagg_approx_cache_hits_total counter\n")
		fmt.Fprintf(w, "rankagg_approx_cache_hits_total %d\n", as.Hits)
		fmt.Fprintf(w, "# HELP rankagg_approx_cache_misses_total Approx-tier session cache lookups that found no ready entry.\n")
		fmt.Fprintf(w, "# TYPE rankagg_approx_cache_misses_total counter\n")
		fmt.Fprintf(w, "rankagg_approx_cache_misses_total %d\n", as.Misses)
		fmt.Fprintf(w, "# HELP rankagg_approx_cache_rekeys_total Approx-tier entries re-keyed after a PATCH rotated the dataset hash.\n")
		fmt.Fprintf(w, "# TYPE rankagg_approx_cache_rekeys_total counter\n")
		fmt.Fprintf(w, "rankagg_approx_cache_rekeys_total %d\n", as.Rekeys)
		fmt.Fprintf(w, "# HELP rankagg_approx_cache_entries Approx-tier sessions currently cached.\n")
		fmt.Fprintf(w, "# TYPE rankagg_approx_cache_entries gauge\n")
		fmt.Fprintf(w, "rankagg_approx_cache_entries %d\n", as.Entries)
		fmt.Fprintf(w, "# HELP rankagg_approx_cache_bytes Incremental aggregation-state bytes currently cached by the approx tier.\n")
		fmt.Fprintf(w, "# TYPE rankagg_approx_cache_bytes gauge\n")
		fmt.Fprintf(w, "rankagg_approx_cache_bytes %d\n", as.Bytes)
		cs := s.consensus.Stats()
		fmt.Fprintf(w, "# HELP rankagg_consensus_hits_total Aggregations answered entirely from the consensus cache (no solver run).\n")
		fmt.Fprintf(w, "# TYPE rankagg_consensus_hits_total counter\n")
		fmt.Fprintf(w, "rankagg_consensus_hits_total %d\n", cs.Hits)
		fmt.Fprintf(w, "# HELP rankagg_consensus_misses_total Consensus cache lookups that found no stored result.\n")
		fmt.Fprintf(w, "# TYPE rankagg_consensus_misses_total counter\n")
		fmt.Fprintf(w, "rankagg_consensus_misses_total %d\n", cs.Misses)
		fmt.Fprintf(w, "# HELP rankagg_consensus_solver_runs_total Solver runs executed on behalf of the consensus cache (single-flighted).\n")
		fmt.Fprintf(w, "# TYPE rankagg_consensus_solver_runs_total counter\n")
		fmt.Fprintf(w, "rankagg_consensus_solver_runs_total %d\n", cs.Runs)
		fmt.Fprintf(w, "# HELP rankagg_consensus_evictions_total Consensus entries evicted to satisfy the byte budget.\n")
		fmt.Fprintf(w, "# TYPE rankagg_consensus_evictions_total counter\n")
		fmt.Fprintf(w, "rankagg_consensus_evictions_total %d\n", cs.Evictions)
		fmt.Fprintf(w, "# HELP rankagg_consensus_invalidations_total Consensus entries dropped because a PATCH rotated their dataset hash.\n")
		fmt.Fprintf(w, "# TYPE rankagg_consensus_invalidations_total counter\n")
		fmt.Fprintf(w, "rankagg_consensus_invalidations_total %d\n", cs.Invalidations)
		fmt.Fprintf(w, "# HELP rankagg_consensus_entries Consensus results currently stored (warm hints included).\n")
		fmt.Fprintf(w, "# TYPE rankagg_consensus_entries gauge\n")
		fmt.Fprintf(w, "rankagg_consensus_entries %d\n", cs.Entries)
		fmt.Fprintf(w, "# HELP rankagg_consensus_bytes_total Bytes pinned by stored consensus results.\n")
		fmt.Fprintf(w, "# TYPE rankagg_consensus_bytes_total gauge\n")
		fmt.Fprintf(w, "rankagg_consensus_bytes_total %d\n", cs.Bytes)
		fmt.Fprintf(w, "# HELP rankagg_matrix_compactions_total Cached pair matrices re-packed to their minimal layout by the idle sweep.\n")
		fmt.Fprintf(w, "# TYPE rankagg_matrix_compactions_total counter\n")
		fmt.Fprintf(w, "rankagg_matrix_compactions_total %d\n", st.Compactions)
		fmt.Fprintf(w, "# HELP rankagg_matrix_compact_reclaimed_bytes_total Bytes reclaimed by matrix re-compaction.\n")
		fmt.Fprintf(w, "# TYPE rankagg_matrix_compact_reclaimed_bytes_total counter\n")
		fmt.Fprintf(w, "rankagg_matrix_compact_reclaimed_bytes_total %d\n", st.CompactedBytes)
		if s.store != nil {
			ss := s.store.Stats()
			fmt.Fprintf(w, "# HELP rankagg_store_datasets Datasets currently persisted in the durable store.\n")
			fmt.Fprintf(w, "# TYPE rankagg_store_datasets gauge\n")
			fmt.Fprintf(w, "rankagg_store_datasets %d\n", ss.Datasets)
			fmt.Fprintf(w, "# HELP rankagg_store_log_records Pending (un-compacted) delta-log records across all persisted datasets.\n")
			fmt.Fprintf(w, "# TYPE rankagg_store_log_records gauge\n")
			fmt.Fprintf(w, "rankagg_store_log_records %d\n", ss.LogRecords)
			fmt.Fprintf(w, "# HELP rankagg_store_bytes On-disk bytes of persisted snapshots and delta logs.\n")
			fmt.Fprintf(w, "# TYPE rankagg_store_bytes gauge\n")
			fmt.Fprintf(w, "rankagg_store_bytes %d\n", ss.Bytes)
			fmt.Fprintf(w, "# HELP rankagg_store_replays_total Sessions reconstructed from the store (snapshot load + delta-log replay).\n")
			fmt.Fprintf(w, "# TYPE rankagg_store_replays_total counter\n")
			fmt.Fprintf(w, "rankagg_store_replays_total %d\n", ss.Replays)
			fmt.Fprintf(w, "# HELP rankagg_store_replay_seconds Cumulative wall-clock seconds spent reconstructing sessions.\n")
			fmt.Fprintf(w, "# TYPE rankagg_store_replay_seconds counter\n")
			fmt.Fprintf(w, "rankagg_store_replay_seconds %.6f\n", ss.ReplaySeconds)
			fmt.Fprintf(w, "# HELP rankagg_store_compactions_total Delta logs folded into a fresh snapshot.\n")
			fmt.Fprintf(w, "# TYPE rankagg_store_compactions_total counter\n")
			fmt.Fprintf(w, "rankagg_store_compactions_total %d\n", ss.Compactions)
			fmt.Fprintf(w, "# HELP rankagg_store_log_truncations_total Corrupt delta-log tails truncated on open.\n")
			fmt.Fprintf(w, "# TYPE rankagg_store_log_truncations_total counter\n")
			fmt.Fprintf(w, "rankagg_store_log_truncations_total %d\n", ss.Truncations)
		}
	})
}

// CompactNow runs one compaction sweep over the session cache (see
// cache.CompactSweep), re-packing every matrix a transient delta left in a
// promoted layout and returning the count re-packed and the bytes given
// back. It is safe to call while requests are in flight — the swap is
// copy-on-write per session — but the O(n²) re-packs cost CPU, which is
// why StartCompactor only sweeps an idle server.
func (s *Server) CompactNow() (compacted int, reclaimed int64) {
	return s.cache.CompactSweep()
}

// StartCompactor launches the idle-time re-compaction loop: every interval
// it sweeps the cache — but only when no aggregation request is executing,
// deferring to the next tick otherwise so maintenance never competes with
// serving. It returns a stop function; stop is idempotent and waits for a
// sweep in progress to finish.
func (s *Server) StartCompactor(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Minute
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if s.metrics.inFlight.Load() == 0 {
					s.cache.CompactSweep()
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}

// acquireWorkers blocks for one token of the global worker budget, then
// opportunistically takes idle ones up to the per-run cap, so a request
// on an idle server runs at full parallelism while simultaneous requests
// degrade toward one worker each — the total never exceeds the budget.
// Tokens are held for the whole run: later arrivals queue here within
// their own time budget. It fails when ctx dies first (client disconnect
// or time budget spent queueing).
func (s *Server) acquireWorkers(ctx context.Context) (int, error) {
	select {
	case s.tokens <- struct{}{}:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	n := 1
	for n < s.perRun {
		select {
		case s.tokens <- struct{}{}:
			n++
			continue
		default:
		}
		break
	}
	s.metrics.tokensInUse.Add(int64(n))
	return n, nil
}

func (s *Server) releaseWorkers(n int) {
	s.metrics.tokensInUse.Add(int64(-n))
	for i := 0; i < n; i++ {
		<-s.tokens
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Printf("server: encoding response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.writeJSON(w, code, errorResponse{Error: msg})
}
