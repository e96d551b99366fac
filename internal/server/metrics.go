package server

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metrics holds the server's counters, exposed on GET /metrics in the
// Prometheus text exposition format: handleMetrics lists every family
// once, as a row of (name, type, help, value), and writeFamilies renders
// the rows. Everything is hand-rolled on sync/atomic — the module takes no
// dependencies — and cheap enough to bump on every request.
type metrics struct {
	start      time.Time
	matrixMode string // the -matrix-mode label, fixed at startup
	approxMode string // the -approx-mode label, fixed at startup

	inFlight       atomic.Int64 // aggregation requests currently executing
	tokensInUse    atomic.Int64 // worker tokens currently held by requests
	cancels        atomic.Int64 // runs aborted by client disconnect
	deadlineHits   atomic.Int64 // runs that returned an incumbent on deadline
	queueRejects   atomic.Int64 // requests whose budget expired waiting for a worker token
	deltaApplied   atomic.Int64 // PATCH deltas applied to a cached session (O(n²) instead of a rebuild)
	deltaMisses    atomic.Int64 // PATCH requests whose base dataset was not cached (client falls back to a full POST)
	approxRequests atomic.Int64 // aggregations served by the matrix-free approximation tier (requested or routed)
	approxRouted   atomic.Int64 // over-budget aggregations the admission router diverted to the approx tier instead of 413ing
	approxDeltas   atomic.Int64 // PATCH deltas absorbed by approx-tier incremental session state (no matrix, no rebuild)
	warmStarts     atomic.Int64 // solver runs seeded from a pre-PATCH consensus (stats.warm_start)
	// rejected counts the 413s of the byte-budget checks, by reason.
	rejected [len(budgetReasons)]atomic.Int64

	mu       sync.Mutex
	requests map[reqKey]int64   // (endpoint, code) → count
	latSum   map[string]float64 // endpoint → total seconds
	latCount map[string]int64   // endpoint → observations
}

// The reasons a byte-budget check answers 413 for, indexing
// metrics.rejected; budgetReasons holds their label values.
const (
	matrixBudget = iota // the projected pair matrix of a POST or PUT
	deltaBudget         // the pair matrix a PATCH would grow a cached session to
	approxBudget        // the matrix-free tier's O(n) state
)

var budgetReasons = [...]string{"matrix-budget", "delta-budget", "approx-budget"}

type reqKey struct {
	endpoint string
	code     int
}

func newMetrics(matrixMode, approxMode string) *metrics {
	return &metrics{
		start:      time.Now(),
		matrixMode: matrixMode,
		approxMode: approxMode,
		requests:   make(map[reqKey]int64),
		latSum:     make(map[string]float64),
		latCount:   make(map[string]int64),
	}
}

// observe records one completed HTTP request.
func (m *metrics) observe(endpoint string, code int, elapsed time.Duration) {
	m.mu.Lock()
	m.requests[reqKey{endpoint, code}]++
	m.latSum[endpoint] += elapsed.Seconds()
	m.latCount[endpoint]++
	m.mu.Unlock()
}

// family is one metric family of the exposition. value is its one
// unlabeled sample's value — an integer, or a float already formatted —
// or, for a labeled family, its samples.
type family struct {
	name, kind, help string
	value            any
}

// sample is one series of a labeled family: suffix follows the family
// name (a _sum/_count suffix and the labels).
type sample struct {
	suffix string
	value  any
}

// writeFamilies renders the exposition document, family by family: the
// HELP and TYPE lines, then the samples.
func writeFamilies(w io.Writer, fams []family) {
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		samples, labeled := f.value.([]sample)
		if !labeled {
			samples = []sample{{"", f.value}}
		}
		for _, s := range samples {
			fmt.Fprintf(w, "%s%s %v\n", f.name, s.suffix, s.value)
		}
	}
}

// httpSamples returns the request counts by endpoint and status code and
// the latency sums and counts by endpoint, read in one critical section.
func (m *metrics) httpSamples() (requests, latency []sample) {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := slices.SortedFunc(maps.Keys(m.requests), func(a, b reqKey) int {
		return cmp.Or(strings.Compare(a.endpoint, b.endpoint), cmp.Compare(a.code, b.code))
	})
	for _, k := range keys {
		requests = append(requests, sample{fmt.Sprintf("{endpoint=%q,code=\"%d\"}", k.endpoint, k.code), m.requests[k]})
	}
	for _, k := range slices.Sorted(maps.Keys(m.latCount)) {
		latency = append(latency,
			sample{fmt.Sprintf("_sum{endpoint=%q}", k), fmt.Sprintf("%.6f", m.latSum[k])},
			sample{fmt.Sprintf("_count{endpoint=%q}", k), m.latCount[k]})
	}
	return requests, latency
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	var rejected []sample
	for reason, label := range budgetReasons {
		rejected = append(rejected, sample{fmt.Sprintf("{reason=%q}", label), m.rejected[reason].Load()})
	}
	requests, latency := m.httpSamples()
	st, as, cs := s.cache.Stats(), s.approx.Stats(), s.consensus.Stats()
	fams := []family{
		{"rankagg_uptime_seconds", "gauge", "Time since the server started.", fmt.Sprintf("%.3f", time.Since(m.start).Seconds())},
		{"rankagg_inflight_requests", "gauge", "Aggregation requests currently executing.", m.inFlight.Load()},
		{"rankagg_worker_tokens_in_use", "gauge", "Worker tokens currently held.", m.tokensInUse.Load()},
		{"rankagg_run_cancels_total", "counter", "Runs aborted by client disconnect.", m.cancels.Load()},
		{"rankagg_run_deadline_hits_total", "counter", "Runs that returned a best incumbent on deadline.", m.deadlineHits.Load()},
		{"rankagg_queue_rejects_total", "counter", "Requests whose budget expired waiting for a worker token.", m.queueRejects.Load()},
		{"rankagg_delta_applied_total", "counter", "PATCH deltas applied to a cached session (O(n²) update, no matrix rebuild).", m.deltaApplied.Load()},
		{"rankagg_delta_miss_fallback_total", "counter", "PATCH requests whose base dataset was not cached; the client must fall back to a full POST.", m.deltaMisses.Load()},
		{"rankagg_matrix_mode", "gauge", "The configured pair-matrix storage mode.", []sample{{fmt.Sprintf("{mode=%q}", m.matrixMode), 1}}},
		{"rankagg_approx_mode", "gauge", "The configured approximation-tier admission mode.", []sample{{fmt.Sprintf("{mode=%q}", m.approxMode), 1}}},
		{"rankagg_approx_requests_total", "counter", "Aggregations served by the matrix-free approximation tier (explicitly requested or routed).", m.approxRequests.Load()},
		{"rankagg_approx_routed_total", "counter", "Over-budget aggregations the admission router diverted to the approximation tier instead of rejecting with 413.", m.approxRouted.Load()},
		{"rankagg_approx_delta_applied_total", "counter", "PATCH deltas absorbed by the approximation tier's incremental session state (O(n log n) per ranking, no matrix, no rebuild).", m.approxDeltas.Load()},
		{"rankagg_warm_starts_total", "counter", "Solver runs seeded from a pre-PATCH consensus instead of cold restarts.", m.warmStarts.Load()},
		{"rankagg_admission_rejected_total", "counter", "Requests rejected with 413 by the byte-budget admission checks, by reason.", rejected},
		{"rankagg_http_requests_total", "counter", "HTTP requests by endpoint and status code.", requests},
		{"rankagg_http_request_seconds", "summary", "Cumulative request latency by endpoint.", latency},
		{"rankagg_cache_hits_total", "counter", "Session cache lookups answered by a ready entry.", st.Hits},
		{"rankagg_cache_misses_total", "counter", "Session cache lookups that found no ready entry.", st.Misses},
		{"rankagg_cache_matrix_builds_total", "counter", "Pair matrices built on behalf of the cache.", st.Builds},
		{"rankagg_cache_evictions_total", "counter", "Sessions evicted to satisfy the cache budgets.", st.Evictions},
		{"rankagg_cache_rekeys_total", "counter", "Cache entries re-keyed after a PATCH rotated the dataset hash.", st.Rekeys},
		{"rankagg_cache_entries", "gauge", "Sessions currently cached.", st.Entries},
		{"rankagg_cache_bytes", "gauge", "Pair-matrix bytes currently cached.", st.Bytes},
		{"rankagg_approx_cache_hits_total", "counter", "Approx-tier session cache lookups answered by a ready entry.", as.Hits},
		{"rankagg_approx_cache_misses_total", "counter", "Approx-tier session cache lookups that found no ready entry.", as.Misses},
		{"rankagg_approx_cache_rekeys_total", "counter", "Approx-tier entries re-keyed after a PATCH rotated the dataset hash.", as.Rekeys},
		{"rankagg_approx_cache_entries", "gauge", "Approx-tier sessions currently cached.", as.Entries},
		{"rankagg_approx_cache_bytes", "gauge", "Incremental aggregation-state bytes currently cached by the approx tier.", as.Bytes},
		{"rankagg_consensus_hits_total", "counter", "Aggregations answered entirely from the consensus cache (no solver run).", cs.Hits},
		{"rankagg_consensus_misses_total", "counter", "Consensus cache lookups that found no stored result.", cs.Misses},
		{"rankagg_consensus_solver_runs_total", "counter", "Solver runs executed on behalf of the consensus cache (single-flighted).", cs.Runs},
		{"rankagg_consensus_evictions_total", "counter", "Consensus entries evicted to satisfy the byte budget.", cs.Evictions},
		{"rankagg_consensus_invalidations_total", "counter", "Consensus entries dropped because a PATCH rotated their dataset hash.", cs.Invalidations},
		{"rankagg_consensus_entries", "gauge", "Consensus results currently stored (warm hints included).", cs.Entries},
		{"rankagg_consensus_bytes_total", "gauge", "Bytes pinned by stored consensus results.", cs.Bytes},
		{"rankagg_matrix_compactions_total", "counter", "Cached pair matrices re-packed to their minimal layout by the idle sweep.", st.Compactions},
		{"rankagg_matrix_compact_reclaimed_bytes_total", "counter", "Bytes reclaimed by matrix re-compaction.", st.CompactedBytes},
	}
	if s.store != nil {
		ss := s.store.Stats()
		fams = append(fams,
			family{"rankagg_store_datasets", "gauge", "Datasets currently persisted in the durable store.", ss.Datasets},
			family{"rankagg_store_log_records", "gauge", "Pending (un-compacted) delta-log records across all persisted datasets.", ss.LogRecords},
			family{"rankagg_store_bytes", "gauge", "On-disk bytes of persisted snapshots and delta logs.", ss.Bytes},
			family{"rankagg_store_replays_total", "counter", "Sessions reconstructed from the store (snapshot load + delta-log replay).", ss.Replays},
			family{"rankagg_store_replay_seconds", "counter", "Cumulative wall-clock seconds spent reconstructing sessions.", fmt.Sprintf("%.6f", ss.ReplaySeconds)},
			family{"rankagg_store_compactions_total", "counter", "Delta logs folded into a fresh snapshot.", ss.Compactions},
			family{"rankagg_store_log_truncations_total", "counter", "Corrupt delta-log tails truncated on open.", ss.Truncations})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	writeFamilies(w, fams)
}
