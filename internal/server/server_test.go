package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rankagg"
	"rankagg/internal/gen"
	"rankagg/internal/rankings"
	"rankagg/internal/server"
)

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// smallRequest is the README's 3-ranking example over named elements.
func smallRequest(algorithm string) server.AggregateRequest {
	return server.AggregateRequest{
		Spec: &rankagg.RunSpec{Algorithm: algorithm},
		DatasetWire: rankings.DatasetWire{
			Names: []string{"A", "B", "C", "D"},
			Rankings: []*rankings.Ranking{
				rankings.New([]int{0}, []int{3}, []int{1, 2}),
				rankings.New([]int{0}, []int{1, 2}, []int{3}),
				rankings.New([]int{3}, []int{0, 2}, []int{1}),
			},
		},
	}
}

func postAggregate(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/aggregate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestAggregateAndCacheReuse(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})

	resp, data := postAggregate(t, ts.URL, smallRequest("BioConsert"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d %s", resp.StatusCode, data)
	}
	var first server.AggregateResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatalf("invalid response JSON: %v (%s)", err, data)
	}
	if first.CacheHit {
		t.Error("first request reported a cache hit")
	}
	if first.Consensus == nil || first.Consensus.Len() != 4 {
		t.Errorf("consensus does not cover the universe: %v", first.Consensus)
	}
	if len(first.ConsensusNames) == 0 {
		t.Error("consensus_names missing despite named request")
	}
	if first.DatasetHash == "" || first.N != 4 || first.M != 3 {
		t.Errorf("metadata: hash=%q n=%d m=%d", first.DatasetHash, first.N, first.M)
	}

	// The second identical dataset must be served from the LRU without
	// rebuilding the pair matrix — the build counter stays at 1.
	resp, data = postAggregate(t, ts.URL, smallRequest("BordaCount"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d %s", resp.StatusCode, data)
	}
	var second server.AggregateResponse
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("second request over the identical dataset missed the cache")
	}
	if second.DatasetHash != first.DatasetHash {
		t.Errorf("hash changed between identical datasets: %q vs %q", first.DatasetHash, second.DatasetHash)
	}
	st := s.CacheStats()
	if st.Builds != 1 {
		t.Errorf("pair matrix built %d times for one dataset, want 1", st.Builds)
	}
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("cache stats = %+v", st)
	}
}

func TestAggregateErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	post := func(body string) (*http.Response, string) {
		resp, err := http.Post(ts.URL+"/v1/aggregate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp, string(data)
	}

	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"malformed JSON", `{`, http.StatusBadRequest},
		{"missing algorithm", `{"rankings":[[[0],[1]]]}`, http.StatusBadRequest},
		{"unknown algorithm", `{"spec":{"algorithm":"Nope"},"rankings":[[[0],[1]]]}`, http.StatusBadRequest},
		{"empty input", `{"spec":{"algorithm":"BioConsert"},"rankings":[]}`, http.StatusBadRequest},
		{"duplicate element", `{"spec":{"algorithm":"BioConsert"},"rankings":[[[0],[0]]]}`, http.StatusBadRequest},
		{"incomplete dataset", `{"spec":{"algorithm":"BioConsert"},"rankings":[[[0],[1]],[[2]]]}`, http.StatusBadRequest},
		{"fractional element", `{"spec":{"algorithm":"BordaCount"},"rankings":[[[0],[1.5]]]}`, http.StatusBadRequest},
		{"element beyond int64", `{"spec":{"algorithm":"BordaCount"},"rankings":[[[0],[99999999999999999999]]]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := post(c.body)
		if resp.StatusCode != c.wantCode {
			t.Errorf("%s: code %d, want %d (%s)", c.name, resp.StatusCode, c.wantCode, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not a JSON error document", c.name, body)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/aggregate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET aggregate: %d, want 405", resp.StatusCode)
	}
}

// TestMaxElementsGuard: a tiny body declaring a huge universe must not
// reach the uncancellable O(n²) matrix allocation. The cap is a byte
// budget (what an int32 matrix of -max-elements elements would cost)
// charged at each request's real projected bytes: pinning int32 keeps the
// historical exact-n cap, while the compact auto backends admit the same
// dataset inside the same budget — the capacity the leaner storage buys.
// Under -approx-mode off the over-budget request is rejected with 413;
// the default auto mode routes it to the matrix-free tier instead (see
// approx_test.go).
func TestMaxElementsGuard(t *testing.T) {
	wire := rankings.DatasetWire{
		N: 10,
		Rankings: []*rankings.Ranking{
			rankings.New([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}),
			rankings.New([]int{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}),
		},
	}
	req := server.AggregateRequest{Spec: &rankagg.RunSpec{Algorithm: "BioConsert"}, DatasetWire: wire}

	// int32 mode: n = 10 needs 1200 bytes, over the 12·8² = 768 budget.
	_, ts := newTestServer(t, server.Config{MaxElements: 8, MatrixMode: rankagg.MatrixInt32, ApproxMode: server.ApproxOff})
	resp, data := postAggregate(t, ts.URL, req)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized dataset: %d %s, want 413", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "server cap is 8") {
		t.Errorf("413 body does not name the cap: %s", data)
	}

	// Auto mode: the complete 2-ranking dataset resolves to int8 tiled +
	// derived-tied — 200 bytes, inside the same budget — and is served
	// exactly.
	_, ts = newTestServer(t, server.Config{MaxElements: 8, ApproxMode: server.ApproxOff})
	resp, data = postAggregate(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact dataset within byte budget: %d %s, want 200", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Rankagg-Tier") != "exact" {
		t.Errorf("in-budget request tier = %q, want exact", resp.Header.Get("X-Rankagg-Tier"))
	}

	// A universe too large even for the compact layout still 413s with
	// routing off.
	big := server.AggregateRequest{Spec: &rankagg.RunSpec{Algorithm: "BioConsert"}, DatasetWire: rankings.DatasetWire{N: 64}}
	big.Rankings = []*rankings.Ranking{rankings.FromPermutation(identityPerm(64))}
	resp, data = postAggregate(t, ts.URL, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized compact dataset: %d %s, want 413", resp.StatusCode, data)
	}
}

func identityPerm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// bnbRequest is an instance BnB chews on for minutes — the subject of the
// deadline and cancellation tests.
func bnbRequest(t *testing.T) server.AggregateRequest {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	d := gen.UniformDataset(rng, 10, 30)
	return server.AggregateRequest{
		Spec:        &rankagg.RunSpec{Algorithm: "BnB"},
		DatasetWire: rankings.DatasetWire{N: d.N, Rankings: d.Rankings},
	}
}

func TestServerMaxTimeoutReturnsIncumbent(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxTimeout: 150 * time.Millisecond})
	req := bnbRequest(t)
	req.Spec.TimeoutMS = 60_000 // clamped to the server's 150ms
	start := time.Now()
	resp, data := postAggregate(t, ts.URL, req)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline run: %d %s", resp.StatusCode, data)
	}
	var out server.AggregateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.DeadlineHit {
		t.Error("expected deadline_hit on a clamped 150ms BnB run")
	}
	if out.Consensus == nil || out.Consensus.Len() != 30 {
		t.Errorf("incumbent missing or partial: %v", out.Consensus)
	}
	if elapsed > 5*time.Second {
		t.Errorf("clamped run took %v — the server max timeout did not apply", elapsed)
	}
}

// TestHugeRestartsBoundedByDeadline: a restart count far beyond what
// memory could hold per run (2⁴⁰) is bounded by the request's time budget.
// Each best-of algorithm answers 200 with deadline_hit and the runs it
// completed, within the budget, and the server stays up.
func TestHugeRestartsBoundedByDeadline(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxTimeout: 3 * time.Second})
	for _, algo := range []string{"KwikSortMin", "RepeatChoiceMin", "Ailon3/2"} {
		body := `{"spec":{"algorithm":"` + algo + `","restarts":1099511627776,"timeout_ms":200},` +
			`"rankings":[[[0],[1],[2]],[[2],[1],[0]],[[1],[0,2]]]}`
		start := time.Now()
		resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/aggregate", json.RawMessage(body))
		elapsed := time.Since(start)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", algo, resp.StatusCode, data)
		}
		var out server.AggregateResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if !out.DeadlineHit {
			t.Errorf("%s: no deadline_hit after 2^40 restarts in 200ms", algo)
		}
		if out.Stats.Restarts <= 0 || int64(out.Stats.Restarts) >= 1<<40 {
			t.Errorf("%s: stats.restarts = %d, want the runs completed before the deadline", algo, out.Stats.Restarts)
		}
		if out.Consensus == nil || out.Consensus.Len() != 3 {
			t.Errorf("%s: consensus missing or partial: %v", algo, out.Consensus)
		}
		if elapsed > time.Second {
			t.Errorf("%s: answered after %v on a 200ms budget", algo, elapsed)
		}
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz %d after the huge restart counts, want 200", resp.StatusCode)
	}
}

func TestClientDisconnectCancelsRun(t *testing.T) {
	s, ts := newTestServer(t, server.Config{MaxTimeout: time.Minute})
	body, err := json.Marshal(bnbRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/aggregate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	// Wait for the run to be in flight, then hang up.
	waitFor(t, time.Second, func() bool { return s.InFlight() == 1 })
	time.Sleep(50 * time.Millisecond) // let the search descend
	cancel()
	if err := <-done; err == nil {
		t.Error("expected the client request to fail after cancellation")
	}
	// The search must stop promptly — minutes of budget remain, so only
	// disconnect propagation can drain the run.
	waitFor(t, 2*time.Second, func() bool { return s.InFlight() == 0 })

	// The aborted run is recorded as 499, not as a success.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metricsText, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(metricsText), `rankagg_http_requests_total{endpoint="aggregate",code="499"} 1`) {
		t.Errorf("cancelled run not counted as 499:\n%s", metricsText)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v", timeout)
}

// TestConcurrentClientsShareOneMatrix races distinct algorithms over one
// dataset (run under -race in CI): every request must succeed and the
// single-flighted cache must build exactly one matrix.
func TestConcurrentClientsShareOneMatrix(t *testing.T) {
	s, ts := newTestServer(t, server.Config{Workers: 4})
	algos := []string{
		"BioConsert", "BordaCount", "CopelandMethod", "KwikSort",
		"MEDRank(0.5)", "RepeatChoice", "Pick-a-Perm", "FaginSmall",
	}
	rng := rand.New(rand.NewSource(7))
	d := gen.UniformDataset(rng, 8, 40)
	var wg sync.WaitGroup
	errs := make(chan error, len(algos))
	for _, name := range algos {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			req := server.AggregateRequest{
				Spec:        &rankagg.RunSpec{Algorithm: name},
				DatasetWire: rankings.DatasetWire{N: d.N, Rankings: d.Rankings},
			}
			body, err := json.Marshal(req)
			if err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(ts.URL+"/v1/aggregate", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s: %d %s", name, resp.StatusCode, data)
				return
			}
			var out server.AggregateResponse
			if err := json.Unmarshal(data, &out); err != nil {
				errs <- fmt.Errorf("%s: %v", name, err)
				return
			}
			if out.Consensus == nil || out.Consensus.Len() != d.N {
				errs <- fmt.Errorf("%s: bad consensus %v", name, out.Consensus)
			}
		}(name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := s.CacheStats(); st.Builds != 1 {
		t.Errorf("concurrent first requests built %d matrices, want 1 (single flight)", st.Builds)
	}
}

func TestAlgorithmsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, err := http.Get(ts.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("algorithms: %d", resp.StatusCode)
	}
	var out struct {
		Algorithms []server.AlgorithmInfo `json:"algorithms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Algorithms) < 20 {
		t.Errorf("only %d algorithms listed", len(out.Algorithms))
	}
	found := map[string]bool{}
	for _, a := range out.Algorithms {
		found[a.Name] = true
		if a.Name == "ExactAlgorithm" && !a.Exact {
			t.Error("ExactAlgorithm not marked exact")
		}
		if a.Name == "BioConsert" && a.Exact {
			t.Error("BioConsert marked exact")
		}
	}
	if !found["BioConsert"] || !found["ExactAlgorithm"] {
		t.Errorf("expected algorithms missing from %v", found)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d, want 200", resp.StatusCode)
	}
	s.Drain()
	s.Drain() // idempotent
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", resp.StatusCode)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	if resp, data := postAggregate(t, ts.URL, smallRequest("BioConsert")); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed request: %d %s", resp.StatusCode, data)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		"rankagg_uptime_seconds",
		"rankagg_inflight_requests 0",
		`rankagg_http_requests_total{endpoint="aggregate",code="200"} 1`,
		`rankagg_http_request_seconds_count{endpoint="aggregate"} 1`,
		"rankagg_cache_hits_total 0",
		"rankagg_cache_misses_total 1",
		"rankagg_cache_matrix_builds_total 1",
		"rankagg_cache_entries 1",
		"rankagg_worker_tokens_in_use 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestMatrixModeWiring pins the -matrix-mode plumbing end to end: the
// configured mode reaches the sessions the server builds (CacheStats
// bytes shrink accordingly) and is exposed on /metrics, where
// rankagg_cache_bytes carries the one cached matrix's real backing size.
func TestMatrixModeWiring(t *testing.T) {
	// The 4-element complete dataset of smallRequest: int32 needs
	// 3·4·16 = 192 bytes, int16 tiled + derived-tied 2·2·16 = 64, and the
	// auto (and int8) resolution lands on int8 tiles at 2·1·16 = 32.
	cases := []struct {
		mode      rankagg.MatrixMode
		bytes     int64
		modeLabel string
	}{
		{rankagg.MatrixInt32, 192, "int32"},
		{rankagg.MatrixInt16, 64, "int16"},
		{rankagg.MatrixAuto, 32, "auto"},
		{rankagg.MatrixInt8, 32, "int8"},
	}
	for _, tc := range cases {
		s, ts := newTestServer(t, server.Config{MatrixMode: tc.mode})
		if resp, data := postAggregate(t, ts.URL, smallRequest("BioConsert")); resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %s: %d %s", tc.modeLabel, resp.StatusCode, data)
		}
		if got := s.CacheStats().Bytes; got != tc.bytes {
			t.Errorf("mode %s: cached matrix bytes = %d, want %d", tc.modeLabel, got, tc.bytes)
		}
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		text := string(data)
		for _, want := range []string{
			fmt.Sprintf("rankagg_matrix_mode{mode=%q} 1", tc.modeLabel),
			fmt.Sprintf("rankagg_cache_bytes %d", tc.bytes),
		} {
			if !strings.Contains(text, want) {
				t.Errorf("mode %s: metrics missing %q:\n%s", tc.modeLabel, want, text)
			}
		}
		ts.Close()
	}
}
