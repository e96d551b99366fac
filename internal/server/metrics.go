package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metrics holds the server's counters, exposed on GET /metrics in the
// Prometheus text exposition format. Everything is hand-rolled on
// sync/atomic — the module takes no dependencies — and cheap enough to
// bump on every request.
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
	matrixBytes    atomic.Int64 // backing bytes of the most recently built (or PATCHed) pair matrix
	approxRequests atomic.Int64 // aggregations served by the matrix-free approximation tier (requested or routed)
	approxRouted   atomic.Int64 // over-budget aggregations the admission router diverted to the approx tier instead of 413ing
	approxDeltas   atomic.Int64 // PATCH deltas absorbed by approx-tier incremental session state (no matrix, no rebuild)
	encodeWorkers  atomic.Int64 // worker tokens granted to the most recent approx-tier run (encode sharding width)
	rejectedMatrix atomic.Int64 // POSTs 413ed because the projected pair matrix exceeds the byte budget
	rejectedDelta  atomic.Int64 // PATCHes 413ed because the delta would promote the matrix past the byte budget
	rejectedApprox atomic.Int64 // requests 413ed because an approx-tier dataset's O(n) state exceeds the byte budget
	warmStarts     atomic.Int64 // solver runs seeded from a pre-PATCH consensus (stats.warm_start)

	mu       sync.Mutex
	requests map[reqKey]int64   // (endpoint, code) → count
	latSum   map[string]float64 // endpoint → total seconds
	latCount map[string]int64   // endpoint → observations
}

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

// write renders the exposition document. cacheLine lets the server append
// gauges owned by other components (the session cache) atomically with the
// same scrape.
func (m *metrics) write(w io.Writer, extra func(io.Writer)) {
	fmt.Fprintf(w, "# HELP rankagg_uptime_seconds Time since the server started.\n")
	fmt.Fprintf(w, "# TYPE rankagg_uptime_seconds gauge\n")
	fmt.Fprintf(w, "rankagg_uptime_seconds %.3f\n", time.Since(m.start).Seconds())

	fmt.Fprintf(w, "# HELP rankagg_inflight_requests Aggregation requests currently executing.\n")
	fmt.Fprintf(w, "# TYPE rankagg_inflight_requests gauge\n")
	fmt.Fprintf(w, "rankagg_inflight_requests %d\n", m.inFlight.Load())

	fmt.Fprintf(w, "# HELP rankagg_worker_tokens_in_use Worker tokens currently held.\n")
	fmt.Fprintf(w, "# TYPE rankagg_worker_tokens_in_use gauge\n")
	fmt.Fprintf(w, "rankagg_worker_tokens_in_use %d\n", m.tokensInUse.Load())

	fmt.Fprintf(w, "# HELP rankagg_run_cancels_total Runs aborted by client disconnect.\n")
	fmt.Fprintf(w, "# TYPE rankagg_run_cancels_total counter\n")
	fmt.Fprintf(w, "rankagg_run_cancels_total %d\n", m.cancels.Load())

	fmt.Fprintf(w, "# HELP rankagg_run_deadline_hits_total Runs that returned a best incumbent on deadline.\n")
	fmt.Fprintf(w, "# TYPE rankagg_run_deadline_hits_total counter\n")
	fmt.Fprintf(w, "rankagg_run_deadline_hits_total %d\n", m.deadlineHits.Load())

	fmt.Fprintf(w, "# HELP rankagg_queue_rejects_total Requests whose budget expired waiting for a worker token.\n")
	fmt.Fprintf(w, "# TYPE rankagg_queue_rejects_total counter\n")
	fmt.Fprintf(w, "rankagg_queue_rejects_total %d\n", m.queueRejects.Load())

	fmt.Fprintf(w, "# HELP rankagg_delta_applied_total PATCH deltas applied to a cached session (O(n²) update, no matrix rebuild).\n")
	fmt.Fprintf(w, "# TYPE rankagg_delta_applied_total counter\n")
	fmt.Fprintf(w, "rankagg_delta_applied_total %d\n", m.deltaApplied.Load())

	fmt.Fprintf(w, "# HELP rankagg_delta_miss_fallback_total PATCH requests whose base dataset was not cached; the client must fall back to a full POST.\n")
	fmt.Fprintf(w, "# TYPE rankagg_delta_miss_fallback_total counter\n")
	fmt.Fprintf(w, "rankagg_delta_miss_fallback_total %d\n", m.deltaMisses.Load())

	fmt.Fprintf(w, "# HELP rankagg_matrix_bytes Backing bytes of the most recently built pair matrix (reflects -matrix-mode; 0 until the first build).\n")
	fmt.Fprintf(w, "# TYPE rankagg_matrix_bytes gauge\n")
	fmt.Fprintf(w, "rankagg_matrix_bytes %d\n", m.matrixBytes.Load())

	fmt.Fprintf(w, "# HELP rankagg_matrix_mode The configured pair-matrix storage mode.\n")
	fmt.Fprintf(w, "# TYPE rankagg_matrix_mode gauge\n")
	fmt.Fprintf(w, "rankagg_matrix_mode{mode=%q} 1\n", m.matrixMode)

	fmt.Fprintf(w, "# HELP rankagg_approx_mode The configured approximation-tier admission mode.\n")
	fmt.Fprintf(w, "# TYPE rankagg_approx_mode gauge\n")
	fmt.Fprintf(w, "rankagg_approx_mode{mode=%q} 1\n", m.approxMode)

	fmt.Fprintf(w, "# HELP rankagg_approx_requests_total Aggregations served by the matrix-free approximation tier (explicitly requested or routed).\n")
	fmt.Fprintf(w, "# TYPE rankagg_approx_requests_total counter\n")
	fmt.Fprintf(w, "rankagg_approx_requests_total %d\n", m.approxRequests.Load())

	fmt.Fprintf(w, "# HELP rankagg_approx_routed_total Over-budget aggregations the admission router diverted to the approximation tier instead of rejecting with 413.\n")
	fmt.Fprintf(w, "# TYPE rankagg_approx_routed_total counter\n")
	fmt.Fprintf(w, "rankagg_approx_routed_total %d\n", m.approxRouted.Load())

	fmt.Fprintf(w, "# HELP rankagg_approx_delta_applied_total PATCH deltas absorbed by the approximation tier's incremental session state (O(n log n) per ranking, no matrix, no rebuild).\n")
	fmt.Fprintf(w, "# TYPE rankagg_approx_delta_applied_total counter\n")
	fmt.Fprintf(w, "rankagg_approx_delta_applied_total %d\n", m.approxDeltas.Load())

	fmt.Fprintf(w, "# HELP rankagg_approx_encode_workers Worker tokens granted to the most recent approx-tier run — the width its encode passes shard across (consensus is worker-count invariant).\n")
	fmt.Fprintf(w, "# TYPE rankagg_approx_encode_workers gauge\n")
	fmt.Fprintf(w, "rankagg_approx_encode_workers %d\n", m.encodeWorkers.Load())

	fmt.Fprintf(w, "# HELP rankagg_warm_starts_total Solver runs seeded from a pre-PATCH consensus instead of cold restarts.\n")
	fmt.Fprintf(w, "# TYPE rankagg_warm_starts_total counter\n")
	fmt.Fprintf(w, "rankagg_warm_starts_total %d\n", m.warmStarts.Load())

	fmt.Fprintf(w, "# HELP rankagg_admission_rejected_total Requests rejected with 413 by the byte-budget admission checks, by reason.\n")
	fmt.Fprintf(w, "# TYPE rankagg_admission_rejected_total counter\n")
	fmt.Fprintf(w, "rankagg_admission_rejected_total{reason=\"matrix-budget\"} %d\n", m.rejectedMatrix.Load())
	fmt.Fprintf(w, "rankagg_admission_rejected_total{reason=\"delta-budget\"} %d\n", m.rejectedDelta.Load())
	fmt.Fprintf(w, "rankagg_admission_rejected_total{reason=\"approx-budget\"} %d\n", m.rejectedApprox.Load())

	m.mu.Lock()
	reqKeys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i].endpoint != reqKeys[j].endpoint {
			return reqKeys[i].endpoint < reqKeys[j].endpoint
		}
		return reqKeys[i].code < reqKeys[j].code
	})
	fmt.Fprintf(w, "# HELP rankagg_http_requests_total HTTP requests by endpoint and status code.\n")
	fmt.Fprintf(w, "# TYPE rankagg_http_requests_total counter\n")
	for _, k := range reqKeys {
		fmt.Fprintf(w, "rankagg_http_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, m.requests[k])
	}
	latKeys := make([]string, 0, len(m.latCount))
	for k := range m.latCount {
		latKeys = append(latKeys, k)
	}
	sort.Strings(latKeys)
	fmt.Fprintf(w, "# HELP rankagg_http_request_seconds Cumulative request latency by endpoint.\n")
	fmt.Fprintf(w, "# TYPE rankagg_http_request_seconds summary\n")
	for _, k := range latKeys {
		fmt.Fprintf(w, "rankagg_http_request_seconds_sum{endpoint=%q} %.6f\n", k, m.latSum[k])
		fmt.Fprintf(w, "rankagg_http_request_seconds_count{endpoint=%q} %d\n", k, m.latCount[k])
	}
	m.mu.Unlock()

	if extra != nil {
		extra(w)
	}
}
