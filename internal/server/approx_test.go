package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"rankagg"
	"rankagg/internal/rankings"
	"rankagg/internal/server"
)

// decodeJSON unmarshals a response body or fails the test.
func decodeJSON(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("invalid response JSON: %v (%s)", err, data)
	}
}

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return string(data)
}

// overBudgetN and routeMaxElements form a routing window: the
// permutation pair of overBudgetRequest projects a pair matrix of
// 2·128² = 32768 bytes even at auto's leanest 2 bytes/pair, over the
// 12·48² = 27648-byte budget in every storage mode, while its matrix-free
// state (rankagg.PredictApproxBytes(128) = 20480) fits, so auto mode
// routes it to the approximation tier. Routing needs both: at 2 bytes per
// pair, no budget below -max-elements 33 holds the O(n) state of a dataset
// whose matrix it refuses.
const (
	overBudgetN      = 128
	routeMaxElements = 48
)

// overBudgetRequest is a complete permutation dataset whose projected
// matrix exceeds the routeMaxElements byte budget in every storage mode.
func overBudgetRequest(algorithm string) server.AggregateRequest {
	perm := identityPerm(overBudgetN)
	rev := make([]int, overBudgetN)
	for i := range rev {
		rev[i] = overBudgetN - 1 - i
	}
	return server.AggregateRequest{
		Spec: &rankagg.RunSpec{Algorithm: algorithm},
		DatasetWire: rankings.DatasetWire{
			N:        overBudgetN,
			Rankings: []*rankings.Ranking{rankings.FromPermutation(perm), rankings.FromPermutation(rev)},
		},
	}
}

// TestApproxRouting: under the default auto mode an over-budget dataset is
// served by the matrix-free tier — 200 with approx: true, a substituted
// algorithm, the tier header, the routed counter — and never touches the
// session cache.
func TestApproxRouting(t *testing.T) {
	s, ts := newTestServer(t, server.Config{MaxElements: routeMaxElements})
	resp, data := postAggregate(t, ts.URL, overBudgetRequest("BioConsert"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("over-budget POST under auto: %d %s, want 200", resp.StatusCode, data)
	}
	var out server.AggregateResponse
	decodeJSON(t, data, &out)
	if !out.Approx {
		t.Error("routed response missing approx: true")
	}
	if out.Algorithm != "lehmer" {
		t.Errorf("substituted algorithm %q, want lehmer for a permutation dataset", out.Algorithm)
	}
	if got := resp.Header.Get("X-Rankagg-Tier"); got != "approx" {
		t.Errorf("X-Rankagg-Tier = %q, want approx", got)
	}
	if out.N != overBudgetN || out.M != 2 {
		t.Errorf("response n=%d m=%d, want %d/2", out.N, out.M, overBudgetN)
	}
	if st := s.CacheStats(); st.Entries != 0 || st.Builds != 0 {
		t.Errorf("approx-routed request touched the session cache: %+v", st)
	}
	text := scrape(t, ts.URL)
	for _, want := range []string{
		"rankagg_approx_requests_total 1",
		"rankagg_approx_routed_total 1",
		`rankagg_admission_rejected_total{reason="matrix-budget"} 0`,
		`rankagg_approx_mode{mode="auto"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestApproxExplicitRequest: asking for a matrix-free algorithm by name is
// approx-tier in every mode — including off — and does not count as
// routed.
func TestApproxExplicitRequest(t *testing.T) {
	for _, mode := range []server.ApproxMode{server.ApproxAuto, server.ApproxOff} {
		s, ts := newTestServer(t, server.Config{ApproxMode: mode})
		resp, data := postAggregate(t, ts.URL, smallRequest("avgrank"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %v: explicit avgrank: %d %s", mode, resp.StatusCode, data)
		}
		var out server.AggregateResponse
		decodeJSON(t, data, &out)
		if !out.Approx || out.Algorithm != "avgrank" {
			t.Errorf("mode %v: approx=%v algorithm=%q", mode, out.Approx, out.Algorithm)
		}
		// The names of smallRequest must flow through the approx leg too.
		if len(out.ConsensusNames) == 0 {
			t.Errorf("mode %v: consensus_names missing", mode)
		}
		if st := s.CacheStats(); st.Entries != 0 {
			t.Errorf("mode %v: explicit approx request cached a session", mode)
		}
		text := scrape(t, ts.URL)
		if !strings.Contains(text, "rankagg_approx_requests_total 1") {
			t.Errorf("mode %v: approx request not counted", mode)
		}
		if !strings.Contains(text, "rankagg_approx_routed_total 0") {
			t.Errorf("mode %v: explicit request counted as routed", mode)
		}
	}
}

// TestApproxForce: force mode serves even a tiny in-budget dataset
// matrix-free with a substituted algorithm.
func TestApproxForce(t *testing.T) {
	_, ts := newTestServer(t, server.Config{ApproxMode: server.ApproxForce})
	resp, data := postAggregate(t, ts.URL, smallRequest("BioConsert"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("force mode: %d %s", resp.StatusCode, data)
	}
	var out server.AggregateResponse
	decodeJSON(t, data, &out)
	// smallRequest has tied buckets, so the substitution picks avgrank.
	if !out.Approx || out.Algorithm != "avgrank" {
		t.Errorf("force mode: approx=%v algorithm=%q, want avgrank", out.Approx, out.Algorithm)
	}
}

// TestApproxOffRejects: with routing off the over-budget dataset 413s and
// the rejection is visible in rankagg_admission_rejected_total.
func TestApproxOffRejects(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxElements: routeMaxElements, ApproxMode: server.ApproxOff})
	resp, data := postAggregate(t, ts.URL, overBudgetRequest("BioConsert"))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget POST under off: %d %s, want 413", resp.StatusCode, data)
	}
	text := scrape(t, ts.URL)
	for _, want := range []string{
		`rankagg_admission_rejected_total{reason="matrix-budget"} 1`,
		"rankagg_approx_routed_total 0",
		`rankagg_approx_mode{mode="off"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestRoutingNeedsApproxBudget: under auto, a budget too small for the
// matrix-free state of the dataset whose matrix it refuses answers 413
// under its own reason rather than routing: -max-elements 8 holds 768
// bytes, overBudgetRequest's state needs 20480.
func TestRoutingNeedsApproxBudget(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxElements: 8})
	resp, data := postAggregate(t, ts.URL, overBudgetRequest("BioConsert"))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget POST under auto, budget below its O(n) state: %d %s, want 413", resp.StatusCode, data)
	}
	text := scrape(t, ts.URL)
	for _, want := range []string{
		`rankagg_admission_rejected_total{reason="approx-budget"} 1`,
		`rankagg_admission_rejected_total{reason="matrix-budget"} 0`,
		"rankagg_approx_requests_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestTopListsEndToEnd: a "toplists" payload is served by the approx tier
// with names resolved, an exact-algorithm request substituted, and the
// rankings/toplists exclusivity enforced.
func TestTopListsEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	req := server.AggregateRequest{
		Spec:     &rankagg.RunSpec{Algorithm: "BioConsert"}, // substituted: top-lists are incomplete
		TopLists: [][]int{{0, 1}, {0, 2}, {1, 0}},
	}
	req.Names = []string{"A", "B", "C"}
	resp, data := postAggregate(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("toplists POST: %d %s", resp.StatusCode, data)
	}
	var out server.AggregateResponse
	decodeJSON(t, data, &out)
	if !out.Approx {
		t.Error("toplists response missing approx: true")
	}
	if out.Algorithm != "lehmer" {
		t.Errorf("substituted algorithm %q, want lehmer for strict lists", out.Algorithm)
	}
	if out.N != 3 || out.M != 3 {
		t.Errorf("n=%d m=%d, want 3/3", out.N, out.M)
	}
	if len(out.ConsensusNames) == 0 || out.ConsensusNames[0][0] != "A" {
		t.Errorf("consensus_names = %v, want A ranked first", out.ConsensusNames)
	}

	// Explicit approx algorithm on top-lists needs no substitution.
	resp, data = postAggregate(t, ts.URL, server.AggregateRequest{Spec: &rankagg.RunSpec{Algorithm: "scores"}, TopLists: [][]int{{1, 0}, {1, 2}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("toplists + scores: %d %s", resp.StatusCode, data)
	}

	// Both dataset shapes at once is a client error.
	both := smallRequest("avgrank")
	both.TopLists = [][]int{{0, 1}}
	if resp, data = postAggregate(t, ts.URL, both); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("rankings+toplists: %d %s, want 400", resp.StatusCode, data)
	}

	// Structurally invalid lists are 400.
	if resp, data = postAggregate(t, ts.URL, server.AggregateRequest{Spec: &rankagg.RunSpec{Algorithm: "lehmer"}, TopLists: [][]int{{0, 0}}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate in toplist: %d %s, want 400", resp.StatusCode, data)
	}
}

// TestTopListsOffMode: with substitution off, a top-lists payload must
// name a matrix-free algorithm — an exact one is a 400, not a silent
// divert.
func TestTopListsOffMode(t *testing.T) {
	_, ts := newTestServer(t, server.Config{ApproxMode: server.ApproxOff})
	req := server.AggregateRequest{Spec: &rankagg.RunSpec{Algorithm: "BioConsert"}, TopLists: [][]int{{0, 1}, {2, 0}}}
	resp, data := postAggregate(t, ts.URL, req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("toplists + exact algorithm under off: %d %s, want 400", resp.StatusCode, data)
	}
	req.Spec = &rankagg.RunSpec{Algorithm: "lehmer"}
	if resp, data = postAggregate(t, ts.URL, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("toplists + lehmer under off: %d %s, want 200", resp.StatusCode, data)
	}
}

// TestApproxScoreMatchesRecompute: the routed response's score is the real
// generalized Kemeny score of the returned consensus against the posted
// dataset — computed matrix-free, verified here against the public
// recompute.
func TestApproxScoreMatchesRecompute(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxElements: routeMaxElements})
	req := overBudgetRequest("lehmer")
	resp, data := postAggregate(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d %s", resp.StatusCode, data)
	}
	var out server.AggregateResponse
	decodeJSON(t, data, &out)
	d := rankings.NewDataset(overBudgetN, req.Rankings...)
	if want := rankagg.Score(out.Consensus, d); out.Score != want {
		t.Errorf("score %d, recomputed %d", out.Score, want)
	}
}

// TestHugeUniverseRejected: a tiny body declaring a universe of 10¹¹
// elements, or implying one with a single huge element ID, must reach
// neither the content hash nor the approximation tier's O(n) state. Inline POST (rankings and toplists forms) and PUT,
// with a store and without, each answer 413 under the default budget,
// counted under their own admission reason; nothing is persisted and the
// server stays up.
func TestHugeUniverseRejected(t *testing.T) {
	requests := []struct{ method, path, body string }{
		{http.MethodPost, "/v1/aggregate", `{"spec":{"algorithm":"BordaCount"},"n":100000000000,"rankings":[[[0]]]}`},
		{http.MethodPost, "/v1/aggregate", `{"spec":{"algorithm":"BordaCount"},"n":100000000000,"toplists":[[0]]}`},
		{http.MethodPut, "/v1/datasets", `{"n":100000000000,"rankings":[[[0]]]}`},
		{http.MethodPut, "/v1/datasets", `{"n":100000000000,"toplists":[[0]]}`},
		{http.MethodPost, "/v1/aggregate", `{"spec":{"algorithm":"BordaCount"},"rankings":[[[0],[99999999999]]]}`},
		{http.MethodPut, "/v1/datasets", `{"rankings":[[[0],[99999999999]]]}`},
	}
	for _, persisted := range []bool{false, true} {
		cfg := server.Config{}
		if persisted {
			cfg.Store = openStore(t, t.TempDir())
		}
		_, ts := newTestServer(t, cfg)
		for _, rq := range requests {
			req, err := http.NewRequest(rq.method, ts.URL+rq.path, strings.NewReader(rq.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("persisted=%v %s %s: %v", persisted, rq.method, rq.body, err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("persisted=%v %s %s: %d %s, want 413", persisted, rq.method, rq.body, resp.StatusCode, data)
			}
		}
		text := scrape(t, ts.URL)
		if want := `rankagg_admission_rejected_total{reason="approx-budget"} 6`; !strings.Contains(text, want) {
			t.Errorf("persisted=%v: metrics missing %q:\n%s", persisted, want, text)
		}
		resp, data := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil)
		if !strings.Contains(string(data), `"total":0`) {
			t.Errorf("persisted=%v: rejected datasets were kept: %d %s", persisted, resp.StatusCode, data)
		}
		if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
			t.Errorf("persisted=%v: healthz %d after the rejections, want 200", persisted, resp.StatusCode)
		}
	}
}

// TestNullRankingRejected: a null in a ranking list decodes to a nil
// ranking, which dataset validation rejects by index — a 400 on inline
// POST and PUT, with or without a store, and the server stays up.
func TestNullRankingRejected(t *testing.T) {
	bodies := []string{
		`"rankings":[null]`,
		`"rankings":[[[0],[1]],null]`,
		`"n":2,"rankings":[[[0],[1]],null]`,
	}
	for _, persisted := range []bool{false, true} {
		cfg := server.Config{}
		if persisted {
			cfg.Store = openStore(t, t.TempDir())
		}
		_, ts := newTestServer(t, cfg)
		for _, b := range bodies {
			for _, rq := range []struct{ method, path, body string }{
				{http.MethodPost, "/v1/aggregate", `{"spec":{"algorithm":"BordaCount"},` + b + `}`},
				{http.MethodPut, "/v1/datasets", `{` + b + `}`},
			} {
				resp, data := doJSON(t, rq.method, ts.URL+rq.path, json.RawMessage(rq.body))
				if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "null") {
					t.Errorf("persisted=%v %s %s: %d %s, want 400 naming the null ranking", persisted, rq.method, rq.body, resp.StatusCode, data)
				}
			}
		}
		if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
			t.Errorf("persisted=%v: healthz %d after the null rankings, want 200", persisted, resp.StatusCode)
		}
	}
}

// discardWriter is a ResponseWriter that drops the body, as a socket
// would take it, so that measuring a handler's allocations does not
// count a recorder buffering the response.
type discardWriter struct {
	header http.Header
	code   int
	head   []byte // the start of the body
}

func (w *discardWriter) Header() http.Header  { return w.header }
func (w *discardWriter) WriteHeader(code int) { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	if len(w.head) < 256 {
		w.head = append(w.head, p[:min(len(p), 256)]...)
	}
	return len(p), nil
}

// allocsOf serves one request straight through h and returns the
// response and the bytes allocated while serving it.
func allocsOf(h http.Handler, method, path, body string) (*discardWriter, uint64) {
	w := &discardWriter{header: http.Header{}}
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	// Two collections empty the sync.Pools, so buffers an earlier request
	// left behind (encoding/json keeps its encoders pooled) do not hide
	// this one's allocations.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(w, req)
	runtime.ReadMemStats(&after)
	return w, after.TotalAlloc - before.TotalAlloc
}

// TestApproxBudgetCoversAllocation: what admission charges a matrix-free
// request for its universe (rankagg.PredictApproxBytes) covers all it
// allocates — the family's state, the consensus and its score, and the
// consensus JSON of the response and of the stored result. Each family
// runs on one top-1 list over a large universe, so nearly every byte is
// per element, both inline on an ephemeral server and by hash on a
// persisted dataset, which also writes its result to the store.
// TotalAlloc counts garbage too, so it bounds the request's peak from
// above.
func TestApproxBudgetCoversAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	const n = 100_000
	budget := rankagg.PredictApproxBytes(n)
	for _, algo := range rankagg.Algorithms() {
		if !rankagg.MatrixFree(algo) {
			continue
		}
		h := server.New(server.Config{Log: log.New(io.Discard, "", 0)}).Handler()
		w, inline := allocsOf(h, http.MethodPost, "/v1/aggregate",
			fmt.Sprintf(`{"spec":{"algorithm":%q},"n":%d,"toplists":[[0]]}`, algo, n))
		if w.code != http.StatusOK {
			t.Fatalf("%s inline: %d %s", algo, w.code, w.head)
		}
		if inline > uint64(budget) {
			t.Errorf("%s inline: allocated %d bytes, admission charges %d", algo, inline, budget)
		}

		h = server.New(server.Config{Log: log.New(io.Discard, "", 0), Store: openStore(t, t.TempDir())}).Handler()
		w, _ = allocsOf(h, http.MethodPut, "/v1/datasets", fmt.Sprintf(`{"n":%d,"toplists":[[0]]}`, n))
		var created server.DatasetCreateResponse
		decodeJSON(t, w.head, &created)
		w, byHash := allocsOf(h, http.MethodPost, "/v1/datasets/"+created.DatasetHash+"/aggregate",
			fmt.Sprintf(`{"spec":{"algorithm":%q}}`, algo))
		if w.code != http.StatusOK {
			t.Fatalf("%s by hash: %d %s", algo, w.code, w.head)
		}
		if byHash > uint64(budget) {
			t.Errorf("%s by hash, persisted: allocated %d bytes, admission charges %d", algo, byHash, budget)
		}
		t.Logf("%s: %.0f bytes per element inline, %.0f by hash with the store; charged %.0f",
			algo, float64(inline)/n, float64(byHash)/n, float64(budget)/n)
	}
}

// TestHugeMaxElementsIsNoCap: a -max-elements whose byte budget does not
// fit in an int64 saturates into no practical cap; it must not wrap into a
// tiny budget that routes or rejects everything.
func TestHugeMaxElementsIsNoCap(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxElements: 1 << 40})
	resp, data := postAggregate(t, ts.URL, smallRequest("BioConsert"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST under a huge cap: %d %s, want 200", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Rankagg-Tier"); got != "exact" {
		t.Errorf("X-Rankagg-Tier = %q, want exact", got)
	}
}

// TestPutOverBudgetHeldMatrixFree: on an ephemeral server, PUT holds a
// complete dataset whose pair matrix is over the budget as an approx-tier
// session, as the router serves the same dataset POSTed inline: 201, a
// by-hash BordaCount answers from the approx tier, and an ops PATCH
// applies there. Under -approx-mode off the PUT stays a matrix-budget
// 413, and a budget that cannot hold the approx state answers an
// approx-budget 413.
func TestPutOverBudgetHeldMatrixFree(t *testing.T) {
	wire := overBudgetRequest("").DatasetWire
	_, ts := newTestServer(t, server.Config{MaxElements: routeMaxElements})
	created, code := putDataset(t, ts.URL, wire)
	if code != http.StatusCreated || created.Persisted || created.N != overBudgetN || created.M != 2 {
		t.Fatalf("PUT of an over-budget dataset: %d %+v, want 201, not persisted, n=%d m=2", code, created, overBudgetN)
	}
	res, resp := aggregateHash(t, ts.URL, created.DatasetHash, "BordaCount")
	if !res.Approx || resp.Header.Get("X-Rankagg-Tier") != "approx" || res.DatasetHash != created.DatasetHash {
		t.Fatalf("by-hash BordaCount: approx=%v tier=%q hash=%s, want the approx tier on %s",
			res.Approx, resp.Header.Get("X-Rankagg-Tier"), res.DatasetHash, created.DatasetHash)
	}
	add := rankings.FromPermutation(identityPerm(overBudgetN)[1:])
	add.Buckets = append(add.Buckets, []int{0})
	resp, data := doPatch(t, ts.URL, created.DatasetHash, map[string]any{"ops": []map[string]any{{"add": add}}})
	var patched server.PatchResponse
	decodeJSON(t, data, &patched)
	if resp.StatusCode != http.StatusOK || !patched.Approx || patched.ApproxDeltas != 1 || patched.M != 3 {
		t.Fatalf("PATCH: %d %s, want 200 applied on the approx tier", resp.StatusCode, data)
	}
	if st := scrape(t, ts.URL); !strings.Contains(st, "rankagg_cache_matrix_builds_total 0") {
		t.Errorf("a pair matrix was built:\n%s", st)
	}

	for _, c := range []struct {
		cfg    server.Config
		reason string
	}{
		{server.Config{MaxElements: routeMaxElements, ApproxMode: server.ApproxOff}, "matrix-budget"},
		{server.Config{MaxElements: 32}, "approx-budget"},
	} {
		_, ts := newTestServer(t, c.cfg)
		resp, data := doJSON(t, http.MethodPut, ts.URL+"/v1/datasets", wire)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%+v: PUT answered %d %s, want 413", c.cfg, resp.StatusCode, data)
		}
		if want := fmt.Sprintf(`rankagg_admission_rejected_total{reason=%q} 1`, c.reason); !strings.Contains(scrape(t, ts.URL), want) {
			t.Errorf("%+v: metrics miss %s", c.cfg, want)
		}
	}
}
