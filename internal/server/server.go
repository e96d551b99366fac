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
//	POST   /v1/aggregate               aggregate an inline dataset (auto-creates
//	                                   a cache entry without persisting)
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
// runs. POST /v1/aggregate never persists: it is the one-shot surface for
// a dataset sent inline.
//
// Reading a PUT body: PUT /v1/datasets reads its body front to back once
// (readPutBody, on rankings.DocReader). Rankings go straight to the
// ranking scanner, top-k lists become rankings of one-element windows
// over one array per list, each ranking is checked once, and only n and
// names pass through encoding/json. It accepts exactly the bodies a
// json.Decoder into DatasetPutRequest accepted, with the same dataset —
// trailing bytes, case-folded and repeated keys and nulls included — but
// refuses a body over the body cap even when its first value ends before
// the cap. The aggregate and PATCH bodies go through a json.Decoder
// (decodeBody). With a store, the snapshot is written in one pass too: the
// rankings append to one buffer, byte for byte what json.Marshal wrote.
//
// Wire forms: an aggregate body names its run in a nested "spec" object
// (rankagg.RunSpec: algorithm, seed, restarts, timeout_ms, workers), and a
// PATCH body carries its delta as "ops". The top-level
// "algorithm"/"seed"/"restarts"/"timeout_ms" fields and the flat PATCH
// "add"/"remove" lists are retired: a body that carries any of them, with
// or without the current form beside it, answers 400 with a message naming
// the form to send.
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
// Dynamic datasets: PATCH applies add/remove ranking deltas in place, in
// one flow for every tier (handlePatchDataset). The delta rule is the one
// rankings.ApplyDelta spells out, shared by the store's log and both
// session tiers. For a persisted dataset the store validates the delta and
// appends it to the log first; then every session cache holding the hash
// folds the delta into its session — O(n²) per ranking on a cached pair
// matrix (Session.ApplyDelta over kendall's Pairs.Add/Remove), O(n log n)
// per ranking on the approx tier's incremental state — instead of the
// O(m·n²) rebuild a full POST of the changed dataset would cost on a
// cache miss. The content hash rotates with the mutation: the response
// carries the new hash, each cache entry re-keys to it, and an entry whose
// own new hash disagrees with the store's is dropped for a rebuild by
// replay. A PATCH of a dataset neither persisted nor cached is a 404
// (rankagg_delta_miss_fallback_total) — the client falls back to a full
// POST.
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
// reason="approx-budget", before it is hashed. One function predicts a
// matrix against the budget (matrixOverBudget) for admission, the
// ephemeral PUT (which, like the router, holds a complete dataset over the
// budget as an approx-tier session unless -approx-mode is off) and a
// PATCH of a session the matrix cache holds
// (reason="delta-budget" for an ephemeral dataset; a persisted one drops
// that session instead, and its next exact run is admitted anew), and one
// writer answers every 413.
//
// Approx-tier sessions: the tier keeps its own hash-keyed LRU of
// rankagg.ApproxSession values — the same generic cache.LRU as the matrix
// tier's, weighing the delta-maintainable aggregation state (per-element
// Lehmer multisets, score totals) by StateBytes, a tiny fraction of a pair
// matrix. That is what makes PATCH work on approx-routed and toplists
// datasets, partial adds included: a toplists dataset absorbs more top-k
// lists (rankagg_approx_delta_applied_total). Both tiers aggregate through
// one flow — consensus single flight, session lookup with a rebuild from
// the store (Store.Rebuild, Store.RebuildApprox), a run pinned to the
// request's hash, SaveConsensus — whose only per-tier step is looking the
// session up and running it (runOnSession). The approx tier takes its
// worker tokens before the consensus lookup, so its consensus hits wait
// for a token too. Encode passes shard across the request's worker tokens;
// the consensus is worker-count invariant, so the answer never depends on
// load.
//
// Dataset view: every handler that reports on or resolves a dataset hash —
// GET /v1/datasets and /v1/datasets/{hash}, the by-hash aggregate and PATCH
// — reads what the server holds for it through one helper (view): each
// cache's session, read without moving an LRU entry or counting a hit, and
// the store's metadata. N, M and the version come from the store when it
// holds the dataset, else from a cached session; element names always come
// from the store.
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
	// CacheEntries and CacheBytes bound the session cache (0: 64 entries /
	// 1 GiB; negative: that bound is unlimited). The approx-tier session
	// cache reuses the entry bound with a sixteenth of the byte budget —
	// its per-dataset state is a tiny fraction of a matrix.
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
		cache:       cache.New(entries, bytes),
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
	// result. timeout_ms is clamped to the server's max budget, which also
	// applies when it is absent; on expiry the best incumbent is returned
	// with deadline_hit set. ("workers" is advisory only: the server's token
	// scheduler assigns the actual parallelism.)
	Spec *rankagg.RunSpec `json:"spec,omitempty"`
	rankings.DatasetWire
	// TopLists carries the dataset as top-k lists instead of "rankings":
	// one ordered best-to-worst element-ID list per voter, no ties, each
	// covering only the elements that voter ranked (rankings.TopListsWire).
	// The decoded dataset is incomplete, so it is served by the matrix-free
	// approximation tier: a non-approx algorithm is substituted (400 under
	// -approx-mode off). Mutually exclusive with "rankings".
	TopLists [][]int `json:"toplists,omitempty"`
	retiredRunFields
}

// retiredRunFields catches the top-level run fields "spec" replaced, so
// that a body still sending any of them answers 400 instead of running
// without them. They are never read.
type retiredRunFields struct {
	Algorithm json.RawMessage `json:"algorithm,omitempty"`
	Seed      json.RawMessage `json:"seed,omitempty"`
	Restarts  json.RawMessage `json:"restarts,omitempty"`
	TimeoutMS json.RawMessage `json:"timeout_ms,omitempty"`
}

// runSpec normalizes the request's "spec" through rankagg.RunSpec.Normalize,
// the defaults resolution the CLI and the library share; the normalized
// spec's key is the consensus cache's key material.
func (req *AggregateRequest) runSpec() (rankagg.RunSpec, error) {
	r := req.retiredRunFields
	if req.Spec == nil || req.Spec.Algorithm == "" || r.Algorithm != nil || r.Seed != nil || r.Restarts != nil || r.TimeoutMS != nil {
		return rankagg.RunSpec{}, errors.New(`name the algorithm in a nested "spec" object, {"spec":{"algorithm":...}}; the top-level "algorithm", "seed", "restarts" and "timeout_ms" fields are retired and refused`)
	}
	return req.Spec.Normalize()
}

// errBothWires answers a dataset body that carries both wires.
var errBothWires = errors.New(`supply "rankings" or "toplists", not both`)

// decodeDataset decodes the dataset part of an aggregate body, and of a
// PUT body readPutBody reads a second time: "rankings" (with optional "n"
// and "names"), or "toplists", not both.
func decodeDataset(wire rankings.DatasetWire, topLists [][]int) (*rankings.Dataset, *rankings.Universe, error) {
	if len(topLists) == 0 {
		return wire.Decode()
	}
	if len(wire.Rankings) > 0 {
		return nil, nil, errBothWires
	}
	tw := rankings.TopListsWire{N: wire.N, Names: wire.Names, TopLists: topLists}
	return tw.Decode()
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
	if need := rankagg.PredictApproxBytes(d.N); s.budget > 0 && need > s.budget {
		s.writeOverBudget(w, approxBudget, fmt.Sprintf("dataset has %d elements and the matrix-free tier's per-element state", d.N), need)
		return false
	}
	return true
}

// matrixOverBudget predicts the pair matrix of a dataset of n elements and
// m rankings under the server's matrix mode, at least floor bytes (a
// delta never narrows a backend it promoted, so a PATCH passes the cached
// matrix's size), and reports it with whether it exceeds the byte budget.
// The matrix build is neither budgeted by the cache (entries are weighed
// after the build) nor cancellable, so every check runs before one.
func (s *Server) matrixOverBudget(n, m int, complete bool, floor int64) (int64, bool) {
	if s.budget == 0 {
		return 0, false
	}
	need := max(rankagg.PredictMatrixBytes(s.matrixMode, n, m, complete), floor)
	return need, need > s.budget
}

// writeOverBudget answers 413 for a request whose predicted bytes exceed
// the byte budget ("<what> would need <need> bytes; the server cap is
// ..."), and counts it under its reason label of
// rankagg_admission_rejected_total.
func (s *Server) writeOverBudget(w http.ResponseWriter, reason int, what string, need int64) {
	s.metrics.rejected[reason].Add(1)
	s.writeError(w, http.StatusRequestEntityTooLarge,
		fmt.Sprintf("%s would need %d bytes; the server cap is %d elements at int32's 12 bytes/pair (%d bytes) — shrink the dataset or raise -max-elements",
			what, need, s.maxElements, s.budget))
}

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
	if !s.decodeBody(w, r, &req) {
		return
	}
	spec, err := req.runSpec()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	d, u, err := decodeDataset(req.DatasetWire, req.TopLists)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveAggregateOn(w, r, spec, d, u, len(req.TopLists) > 0)
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
	// tier only if its projected pair matrix fits the byte budget
	// (matrixOverBudget) — a tiny body can declare a huge universe, so the
	// check runs before any allocation. The budget is what an int32 matrix
	// of -max-elements elements would cost; each request is charged its
	// REAL projected bytes under the server's matrix mode. Over-budget
	// datasets are diverted to the matrix-free tier under -approx-mode auto
	// (routed, with a substituted algorithm) and rejected with 413 under
	// off.
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
		need, overBudget := s.matrixOverBudget(d.N, d.M(), d.Complete(), 0)
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
			s.writeOverBudget(w, matrixBudget, fmt.Sprintf("dataset has %d elements and its %s pair matrix", d.N, s.matrixMode), need)
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

	var tokens int
	if approxTier {
		// The approx tier takes its worker tokens before the consensus
		// lookup and holds them until its response is written, so even its
		// consensus hits queue for a token; the exact tier takes them
		// inside the single flight below. The wider span stays because
		// narrowing it changes the tier's served throughput, which
		// perfbench's approx-wire op sequences are sized for.
		var err error
		if tokens, err = s.acquireWorkers(ctx); err != nil {
			s.writeRunError(w, r, err, spec.Algorithm, "")
			return
		}
		defer s.releaseWorkers(tokens)
		s.metrics.approxRequests.Add(1)
		if routed {
			s.metrics.approxRouted.Add(1)
		}
		// The admission router may have substituted the algorithm; the
		// token scheduler, not the client, decides the parallelism.
		spec.Algorithm = runName
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
		n := tokens
		if !approxTier {
			// Worker tokens are acquired inside the single flight: a
			// consensus hit — and every waiter coalesced onto this solve —
			// never queues for the worker budget at all.
			var err error
			if n, err = s.acquireWorkers(ctx); err != nil {
				return nil, 0, err
			}
			defer s.releaseWorkers(n)
		}
		res, version, hit, err := s.runOnSession(ctx, approxTier, hash, d, spec, n)
		if err != nil {
			return nil, 0, err
		}
		sessHit = hit
		if res.Stats.WarmStart {
			s.metrics.warmStarts.Add(1)
		}
		// Persist the result alongside the dataset (inside the single
		// flight, so coalesced waiters don't re-write it). The store
		// applies the same exclusions the in-memory cache does — nothing
		// deadline-cut — and silently drops results for hashes it no
		// longer serves (non-persisted datasets, raced rotations).
		if s.store != nil {
			s.store.SaveConsensus(hash, specKey, store.WireFromResult(res))
		}
		return res, version, nil
	})
	if err != nil {
		s.writeRunError(w, r, err, spec.Algorithm, hash)
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
		Approx:       approxTier,
		N:            d.N,
		M:            d.M(),
		Stats:        res.Stats,
	}
	if u != nil {
		resp.ConsensusNames = rankings.BucketNames(res.Consensus, u)
	}
	tier := "exact"
	if approxTier {
		tier = "approx"
	}
	w.Header().Set("X-Rankagg-Tier", tier)
	s.writeJSON(w, http.StatusOK, resp)
}

// runOnSession is the aggregate flow's one per-tier step: it looks up the
// dataset's session in the tier's cache and runs spec on it (runPinned).
// A session missing from the cache is built from the durable store when
// the dataset is persisted — snapshot load plus delta-log replay through
// the same ApplyDelta a live PATCH runs, so an evicted session (or a
// restarted process) costs a replay, not a 404 — and from d otherwise; a
// store error falls back to d too, which is in hand. The matrix tier
// builds the pair matrix eagerly, inside the cache's single flight, and
// spends a pending warm hint on a warm-startable algorithm; the approx
// tier's encode passes shard across the request's worker tokens.
func (s *Server) runOnSession(ctx context.Context, approxTier bool, hash string, d *rankings.Dataset, spec rankagg.RunSpec, tokens int) (*rankagg.Result, uint64, bool, error) {
	if approxTier {
		return runPinned(ctx, s.approx, hash, spec, func() (*rankagg.ApproxSession, error) {
			if s.store != nil && s.store.Has(hash) {
				if sess, _, err := s.store.RebuildApprox(hash); err == nil {
					return sess, nil
				}
			}
			return rankagg.NewApproxSession(d)
		}, func() (*rankagg.ApproxSession, error) {
			return rankagg.NewApproxSession(d)
		}, func() []rankagg.Option {
			return []rankagg.Option{rankagg.WithWorkers(tokens)}
		})
	}
	return runPinned(ctx, s.cache, hash, spec, func() (*rankagg.Session, error) {
		if s.store != nil && s.store.Has(hash) {
			if sess, _, err := s.store.Rebuild(hash); err == nil {
				return sess, nil
			}
		}
		sess, err := rankagg.NewSession(d, rankagg.WithMatrixMode(s.matrixMode))
		if err == nil {
			sess.Pairs() // eager O(m·n²) build inside the single flight
		}
		return sess, err
	}, func() (*rankagg.Session, error) {
		return rankagg.NewSession(d, rankagg.WithMatrixMode(s.matrixMode))
	}, func() []rankagg.Option {
		opts := []rankagg.Option{rankagg.WithWorkers(tokens)}
		if rankagg.CanWarmStart(spec.Algorithm) {
			// A PATCH on this dataset's ancestor left its best pre-PATCH
			// consensus as a hint; spend it (consume-once) on this solve.
			if hint := s.consensus.TakeWarmHint(hash); hint != nil {
				opts = append(opts, rankagg.WithWarmStart(hint.Consensus))
			}
		}
		return opts
	})
}

// servedSession is what the aggregate and PATCH flows need of either
// tier's session (rankagg.Session, rankagg.ApproxSession).
type servedSession interface {
	Version() uint64
	Hash() string
	RunSpec(context.Context, rankagg.RunSpec, ...rankagg.Option) (*rankagg.Result, error)
	RunSpecPinned(context.Context, string, rankagg.RunSpec, ...rankagg.Option) (*rankagg.Result, error)
	ApplyDelta(add, remove []*rankings.Ranking) error
}

// runPinned runs spec on the session c caches under hash, building it on a
// miss, and reports the result, the session version it ran at and whether
// a ready entry answered the lookup. The response is labeled with hash, so
// the run must happen on exactly that dataset — but the cached session is
// dynamic, and a concurrent PATCH may rotate it away between the lookup and
// the run. The run is pinned to hash under the session's own lock; on
// losing that race it falls back to a private session over the request's
// own rankings (the same cost as a plain cache miss) rather than fighting
// over the cache entry. opts is called once the session is in hand.
func runPinned[S servedSession](ctx context.Context, c *cache.LRU[S], hash string, spec rankagg.RunSpec, build, private func() (S, error), opts func() []rankagg.Option) (*rankagg.Result, uint64, bool, error) {
	sess, hit, err := c.GetOrBuild(hash, build)
	if err != nil {
		// Session constructors reject only the request's own dataset.
		return nil, 0, false, inputError{err}
	}
	version := sess.Version()
	o := opts()
	res, err := sess.RunSpecPinned(ctx, hash, spec, o...)
	if !errors.Is(err, rankagg.ErrStalePairs) {
		return res, version, hit, err
	}
	priv, err := private()
	if err != nil {
		return nil, 0, false, inputError{err}
	}
	res, err = priv.RunSpec(ctx, spec, o...)
	return res, priv.Version(), false, err
}

// writeRunError maps a failed aggregation to its status: the request's own
// dataset is a 400; a client that disconnected gets nginx's 499 (nobody
// reads it, but the metrics must not count the aborted run as a 200); a
// time budget spent queueing for a worker token is a 503, and so is a
// request coalesced onto an identical one whose client disconnected; any
// other run failure is a 422.
func (s *Server) writeRunError(w http.ResponseWriter, r *http.Request, err error, algorithm, hash string) {
	var ie inputError
	switch {
	case errors.As(err, &ie):
		s.writeError(w, http.StatusBadRequest, ie.Error())
	case errors.Is(err, context.Canceled):
		if r.Context().Err() != nil {
			s.metrics.cancels.Add(1)
			w.WriteHeader(statusClientClosedRequest)
		} else {
			// This client is still here; a retry runs the solve itself.
			s.writeError(w, http.StatusServiceUnavailable, "the identical in-flight request this one coalesced with was cancelled; retry")
		}
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.queueRejects.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "worker budget exhausted within the request's time budget")
	default:
		s.log.Printf("aggregate %s on %s: %v", algorithm, hash, err)
		s.writeError(w, http.StatusUnprocessableEntity, err.Error())
	}
}

// inputError marks a solve failure caused by the request's own dataset (a
// session constructor's rejection inside the consensus single flight); the
// flow maps it to 400 where run failures are 422.
type inputError struct{ err error }

func (e inputError) Error() string { return e.err.Error() }
func (e inputError) Unwrap() error { return e.err }

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
	retiredDeltaFields
}

// retiredDeltaFields catches the flat delta lists "ops" replaced, so that a
// body still sending either answers 400 instead of applying part of its
// delta. They are never read.
type retiredDeltaFields struct {
	Add    json.RawMessage `json:"add,omitempty"`
	Remove json.RawMessage `json:"remove,omitempty"`
}

// delta flattens the request into the one (add, remove) pair the delta
// machinery consumes.
func (req *PatchRequest) delta() (add, remove []*rankings.Ranking, err error) {
	if len(req.Ops) == 0 || req.Add != nil || req.Remove != nil {
		return nil, nil, errors.New(`send the delta as {"ops":[{"add":...},{"remove":...}]} with at least one op; the top-level "add" and "remove" lists are retired and refused`)
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
	// (approx-routed and toplists datasets, which admit partial adds, and
	// complete datasets that were also run matrix-free, whose matrix
	// session takes the same delta). ApproxDeltas is that session's
	// cumulative delta count.
	Approx       bool    `json:"approx,omitempty"`
	ApproxDeltas int     `json:"approx_deltas,omitempty"`
	ElapsedMS    float64 `json:"elapsed_ms"`
}

// handlePatchDataset applies one atomic delta to the dataset at the path
// hash, in one flow for every tier and both server kinds:
//
//  1. decode the body into one (add, remove) pair;
//  2. resolve the current dataset through the dataset view: a cached
//     session's, else the store's (neither: 404, the client falls back to
//     a full POST);
//  3. when the matrix cache holds the dataset, re-check the byte budget
//     its pair matrix could grow past: over it, an ephemeral dataset
//     answers 413, and a persisted one loses that matrix session once its
//     delta is logged, so the answer does not depend on what is cached;
//  4. for a persisted dataset, validate the delta and append it to the
//     store's delta log (fsync'd) BEFORE any in-memory state moves — the
//     write-ahead point, so a crash at any later point replays it
//     deterministically, and an evicted session is no 404 because the
//     store holds the truth;
//  5. offer the delta to every session cache that holds the hash
//     (offerDelta): each entry mutates in place and re-keys to the rotated
//     hash, and an entry whose own new hash disagrees with the store's —
//     or, without a store, with the first session's — is dropped, so the
//     next request rebuilds it;
//  6. answer with the new hash.
//
// Without a store the first session to take the delta validates it: its
// rejection is the client's error, and that session stays as it was.
func (s *Server) handlePatchDataset(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	var req PatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	add, remove, err := req.delta()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	start := time.Now()

	v := s.view(hash)
	persisted := v.stored != nil
	d0, _, ok := s.datasetOf(hash, v)
	switch {
	case !ok && persisted:
		s.writeRotated(w, hash)
		return
	case !ok:
		s.writeDeltaMiss(w, hash)
		return
	}
	// A delta can promote the matrix backend (int16 → int32 when m crosses
	// 32767), growing the allocation the cached session was admitted
	// under; the check runs before anything is logged or mutated, since
	// promotions are one-way. A dataset no matrix session holds has no
	// matrix to grow: its next exact run is admitted or routed anew, and so
	// is a persisted dataset's once its over-budget session is dropped.
	dropMatrix := false
	if v.matrix != nil {
		need, over := s.matrixOverBudget(d0.N, d0.M()+len(add)-len(remove), true, v.matrix.MatrixBytes())
		if over && !persisted {
			s.writeOverBudget(w, deltaBudget, "after this delta, the dataset's pair matrix", need)
			return
		}
		dropMatrix = over
	}
	resp := PatchResponse{
		BaseHash:     hash,
		N:            d0.N,
		M:            d0.M() - len(remove) + len(add),
		Added:        len(add),
		Removed:      len(remove),
		DeltaApplied: true,
		Persisted:    persisted,
	}
	var newHash string
	var version uint64
	if persisted {
		var info store.DatasetInfo
		if newHash, info, err = s.store.AppendPatch(hash, add, remove); err != nil {
			if errors.Is(err, store.ErrNotFound) || errors.Is(err, store.ErrStaleHash) {
				s.writeRotated(w, hash)
			} else {
				s.writePatchError(w, err)
			}
			return
		}
		version = info.Version
		if dropMatrix {
			s.cache.Remove(hash)
		}
	}

	// The response fields are captured inside the mutations, while this
	// request exclusively owns the detached entry: once it is re-inserted,
	// a concurrent PATCH may mutate the session again, and reading the
	// counters afterwards would pair this request's hash with a later
	// mutation's state. Without a store, the warm hint carries the version
	// of the session that validated the delta.
	key, applied, err := offerDelta(s.cache, hash, newHash, add, remove, func(sess *rankagg.Session) {
		resp.MatrixBuilds, resp.MatrixDeltas = sess.MatrixBuilds(), sess.MatrixDeltas()
		if newHash == "" {
			version = sess.Version()
		}
	})
	if err != nil {
		s.writePatchError(w, err)
		return
	}
	if applied {
		newHash = key
	} else {
		resp.MatrixBuilds, resp.MatrixDeltas = 0, 0
	}
	key, applied, err = offerDelta(s.approx, hash, newHash, add, remove, func(sess *rankagg.ApproxSession) {
		resp.ApproxDeltas = sess.DeltaCount()
		if newHash == "" {
			version = sess.Version()
		}
	})
	if err != nil {
		s.writePatchError(w, err)
		return
	}
	if applied {
		newHash = key
		resp.Approx = true
		s.metrics.approxDeltas.Add(1)
	} else {
		resp.ApproxDeltas = 0
	}
	if newHash == "" {
		// Evicted between the lookup and the mutation.
		s.writeDeltaMiss(w, hash)
		return
	}
	s.metrics.deltaApplied.Add(1)
	s.harvestWarmHint(hash, newHash, version)
	resp.DatasetHash = newHash
	resp.ElapsedMS = float64(time.Since(start).Nanoseconds()) / 1e6
	w.Header().Set("Location", "/v1/datasets/"+newHash)
	s.writeJSON(w, http.StatusOK, resp)
}

// offerDelta applies one delta to the session c caches under hash, if it
// holds one, and re-keys the entry to the session's new hash (cache
// Mutate); read captures response fields from the session while the
// request owns the detached entry. want is the hash the delta must produce:
// the store's, or an earlier session's. An entry that rejects the delta,
// or lands on another hash, is dropped — the store wins, and the next
// request rebuilds the session by replay. With no want yet, this session
// is the one that validates the delta: its rejection is returned, and
// Mutate restores the entry untouched. applied reports that the entry
// took the delta and now lives under newHash.
func offerDelta[S servedSession](c *cache.LRU[S], hash, want string, add, remove []*rankings.Ranking, read func(S)) (newHash string, applied bool, err error) {
	_, newHash, found, err := c.Mutate(hash, func(sess S) (string, error) {
		if err := sess.ApplyDelta(add, remove); err != nil {
			return "", err
		}
		read(sess)
		return sess.Hash(), nil
	})
	switch {
	case !found:
		return "", false, nil
	case err != nil && want == "":
		return "", false, err
	case err != nil:
		c.Remove(hash)
		return "", false, nil
	case want != "" && newHash != want:
		c.Remove(newHash)
		return "", false, nil
	}
	return newHash, true, nil
}

// writeRotated answers a PATCH whose persisted dataset rotated away between
// the lookup and the append.
func (s *Server) writeRotated(w http.ResponseWriter, hash string) {
	s.writeError(w, http.StatusConflict,
		fmt.Sprintf("dataset %s rotated concurrently; re-GET the dataset for its current hash", hash))
}

// writeDeltaMiss answers a PATCH of a dataset that is neither persisted nor
// cached.
func (s *Server) writeDeltaMiss(w http.ResponseWriter, hash string) {
	s.metrics.deltaMisses.Add(1)
	s.writeError(w, http.StatusNotFound,
		fmt.Sprintf("dataset %s is not cached; POST the full dataset to /v1/aggregate, or PUT it to /v1/datasets to persist it", hash))
}

// writePatchError maps a rejected delta to its status: conflicts with the
// dataset's current content are 409 (the caller holds a stale view), and
// structurally invalid rankings are 400. In every case nothing was mutated
// and nothing was logged.
func (s *Server) writePatchError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, rankagg.ErrRankingNotFound) || errors.Is(err, rankagg.ErrDatasetEmptied) {
		code = http.StatusConflict
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
	// Version is the dataset's mutation version: +1 per ranking added or
	// removed — since the PUT for a persisted dataset (the store's count),
	// since the session was built for a cache-only one.
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
// perturbing anything: it reads the dataset view (no LRU move, no hit/miss
// counting, store metadata only). A dataset held by neither a cache nor
// the store is a 404. An evicted-but-persisted dataset answers from the
// store with Cached false.
func (s *Server) handleDatasetInfo(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	v := s.view(hash)
	if !v.held() {
		s.writeError(w, http.StatusNotFound,
			fmt.Sprintf("dataset %s is neither cached nor persisted", hash))
		return
	}
	resp := DatasetInfoResponse{DatasetHash: hash, Cached: v.cached(), Persisted: v.stored != nil}
	resp.N, resp.M, resp.Version = v.meta()
	if v.matrix != nil {
		resp.MatrixLayout = v.matrix.MatrixLayout()
		resp.MatrixBytes = v.matrix.MatrixBytes()
		resp.MatrixBuilds = v.matrix.MatrixBuilds()
		resp.MatrixDeltas = v.matrix.MatrixDeltas()
	}
	if v.approx != nil {
		resp.Approx = true
		resp.ApproxStateBytes = v.approx.StateBytes()
		resp.ApproxDeltas = v.approx.DeltaCount()
	}
	if v.stored != nil {
		resp.LogRecords = v.stored.LogRecords
		resp.StoreBytes = v.stored.Bytes
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

// CompactNow runs one compaction sweep over the session cache (see
// cache.CompactSweep), re-packing every matrix a transient delta left in a
// promoted layout and returning the count re-packed and the bytes given
// back. It is safe to call while requests are in flight — the swap is
// copy-on-write per session — but the O(n²) re-packs cost CPU, which is
// why StartCompactor only sweeps an idle server.
func (s *Server) CompactNow() (compacted int, reclaimed int64) {
	return cache.CompactSweep(s.cache)
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
					cache.CompactSweep(s.cache)
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
// or time budget spent queueing). An admitted aggregation counts in flight
// until releaseWorkers.
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
	s.metrics.inFlight.Add(1)
	return n, nil
}

// releaseWorkers returns the tokens of one aggregation acquireWorkers
// admitted and ends its in-flight count.
func (s *Server) releaseWorkers(n int) {
	s.metrics.inFlight.Add(-1)
	s.metrics.tokensInUse.Add(int64(-n))
	for i := 0; i < n; i++ {
		<-s.tokens
	}
}

// decodeBody decodes the JSON request body into v under the body cap and
// reports whether it parsed; on failure it has answered 400. An empty body
// leaves v zero: each handler's own checks answer what it lacks.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(v)
	if err != nil && !errors.Is(err, io.EOF) {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return false
	}
	return true
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
