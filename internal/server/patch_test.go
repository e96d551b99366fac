package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"rankagg"
	"rankagg/internal/rankings"
	"rankagg/internal/server"
)

func doPatch(t *testing.T, url, hash string, req any) (*http.Response, []byte) {
	t.Helper()
	var body []byte
	switch v := req.(type) {
	case string:
		body = []byte(v)
	default:
		var err error
		body, err = json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
	}
	httpReq, err := http.NewRequest(http.MethodPatch, url+"/v1/datasets/"+hash, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(httpReq)
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

// extraRanking is a fourth complete ranking over the smallRequest
// universe, used as the PATCH delta throughout.
func extraRanking() *rankings.Ranking {
	return rankings.New([]int{1}, []int{0, 2}, []int{3})
}

// TestPatchDeltaPath is the serving-layer acceptance check of the issue:
// cold build → PATCH → warm POST of the changed dataset, with the matrix
// built exactly once — the PATCH goes through the O(n²) delta, not a
// rebuild — and the aggregate over the patched dataset scoring exactly
// like a from-scratch aggregation of the same rankings.
func TestPatchDeltaPath(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})

	resp, data := postAggregate(t, ts.URL, smallRequest("BordaCount"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold POST: %d %s", resp.StatusCode, data)
	}
	var cold server.AggregateResponse
	if err := json.Unmarshal(data, &cold); err != nil {
		t.Fatal(err)
	}

	resp, data = doPatch(t, ts.URL, cold.DatasetHash, server.PatchRequest{Ops: []server.PatchOp{{Add: extraRanking()}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH: %d %s", resp.StatusCode, data)
	}
	var patch server.PatchResponse
	if err := json.Unmarshal(data, &patch); err != nil {
		t.Fatal(err)
	}
	if !patch.DeltaApplied || patch.M != 4 || patch.N != 4 || patch.Added != 1 {
		t.Errorf("patch response = %+v", patch)
	}
	if patch.BaseHash != cold.DatasetHash || patch.DatasetHash == cold.DatasetHash {
		t.Errorf("hash did not rotate: base=%s new=%s", patch.BaseHash, patch.DatasetHash)
	}
	if patch.MatrixBuilds != 1 || patch.MatrixDeltas != 1 {
		t.Errorf("PATCH went through a rebuild: builds=%d deltas=%d, want 1 and 1", patch.MatrixBuilds, patch.MatrixDeltas)
	}

	// A full POST of the changed dataset lands on the re-keyed entry.
	grownReq := smallRequest("BordaCount")
	grownReq.Rankings = append(grownReq.Rankings, extraRanking())
	resp, data = postAggregate(t, ts.URL, grownReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm POST: %d %s", resp.StatusCode, data)
	}
	var warm server.AggregateResponse
	if err := json.Unmarshal(data, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("POST of the PATCHed dataset missed the cache")
	}
	if warm.DatasetHash != patch.DatasetHash {
		t.Errorf("POST hash %s differs from the PATCH's rotated hash %s", warm.DatasetHash, patch.DatasetHash)
	}
	if warm.M != 4 {
		t.Errorf("warm POST m = %d, want 4", warm.M)
	}

	// Correctness: the delta-maintained session scores exactly like a
	// from-scratch session over the same rankings.
	d := rankings.NewDataset(4, grownReq.Rankings...)
	fresh, err := rankagg.NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fresh.Run(t.Context(), "BordaCount")
	if err != nil {
		t.Fatal(err)
	}
	if warm.Score != res.Score {
		t.Errorf("patched-session score %d differs from fresh build %d", warm.Score, res.Score)
	}

	st := s.CacheStats()
	if st.Builds != 1 {
		t.Errorf("matrix built %d times across cold+PATCH+warm, want exactly 1", st.Builds)
	}
	if st.Rekeys != 1 || st.Entries != 1 {
		t.Errorf("cache stats = %+v", st)
	}

	// The old hash no longer names anything: a PATCH against it is a
	// clean 404 fallback, and the metrics record both outcomes.
	resp, data = doPatch(t, ts.URL, cold.DatasetHash, server.PatchRequest{Ops: []server.PatchOp{{Add: extraRanking()}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("PATCH of rotated-away hash: %d %s", resp.StatusCode, data)
	}
	metricsResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metricsResp.Body.Close()
	metrics, _ := io.ReadAll(metricsResp.Body)
	for _, want := range []string{
		"rankagg_delta_applied_total 1",
		"rankagg_delta_miss_fallback_total 1",
		"rankagg_cache_rekeys_total 1",
		"rankagg_cache_matrix_builds_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestPatchRemoveAndRoundtrip removes the added ranking again: the hash
// must rotate back to the original, whose cache entry then serves POSTs
// of the original dataset without a rebuild.
func TestPatchRemoveAndRoundtrip(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})
	_, data := postAggregate(t, ts.URL, smallRequest("BordaCount"))
	var cold server.AggregateResponse
	if err := json.Unmarshal(data, &cold); err != nil {
		t.Fatal(err)
	}
	_, data = doPatch(t, ts.URL, cold.DatasetHash, server.PatchRequest{Ops: []server.PatchOp{{Add: extraRanking()}}})
	var grown server.PatchResponse
	if err := json.Unmarshal(data, &grown); err != nil {
		t.Fatal(err)
	}
	resp, data := doPatch(t, ts.URL, grown.DatasetHash, server.PatchRequest{Ops: []server.PatchOp{{Remove: extraRanking()}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("removing PATCH: %d %s", resp.StatusCode, data)
	}
	var back server.PatchResponse
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.DatasetHash != cold.DatasetHash || back.M != 3 {
		t.Errorf("remove did not rotate back: hash=%s m=%d, want %s m=3", back.DatasetHash, back.M, cold.DatasetHash)
	}
	resp, data = postAggregate(t, ts.URL, smallRequest("BioConsert"))
	var again server.AggregateResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST after roundtrip: %d %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &again); err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("original dataset missed the cache after the PATCH roundtrip")
	}
	if st := s.CacheStats(); st.Builds != 1 || st.Rekeys != 2 {
		t.Errorf("cache stats after roundtrip = %+v", st)
	}
}

// TestPatchErrorPaths covers the non-2xx responses of the PATCH endpoint.
func TestPatchErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	_, data := postAggregate(t, ts.URL, smallRequest("BordaCount"))
	var cold server.AggregateResponse
	if err := json.Unmarshal(data, &cold); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		hash string
		body string
		code int
	}{
		{"unknown hash", strings.Repeat("0", 32), `{"ops":[{"add":[[0],[1],[2],[3]]}]}`, http.StatusNotFound},
		{"empty delta", cold.DatasetHash, `{}`, http.StatusBadRequest},
		{"malformed body", cold.DatasetHash, `{"ops":[{"add":`, http.StatusBadRequest},
		{"structurally invalid ranking", cold.DatasetHash, `{"ops":[{"add":[[0],[0],[1,2,3]]}]}`, http.StatusBadRequest},
		{"partial ranking", cold.DatasetHash, `{"ops":[{"add":[[0],[1]]}]}`, http.StatusBadRequest},
		{"out-of-universe ranking", cold.DatasetHash, `{"ops":[{"add":[[0],[1],[2],[3],[4]]}]}`, http.StatusBadRequest},
		{"remove not present", cold.DatasetHash, `{"ops":[{"remove":[[3],[2],[0,1]]}]}`, http.StatusConflict},
		{"would empty the dataset", cold.DatasetHash,
			`{"ops":[{"remove":[[0],[3],[1,2]]},{"remove":[[0],[1,2],[3]]},{"remove":[[3],[0,2],[1]]}]}`, http.StatusConflict},
	}
	for _, tc := range cases {
		resp, data := doPatch(t, ts.URL, tc.hash, tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: code %d (%s), want %d", tc.name, resp.StatusCode, data, tc.code)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q", tc.name, data)
		}
	}
	// Failed deltas must leave the entry serving the original dataset.
	resp, data := postAggregate(t, ts.URL, smallRequest("BordaCount"))
	var again server.AggregateResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST after failed PATCHes: %d %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &again); err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("failed PATCHes evicted or corrupted the entry")
	}
	// GET on the datasets resource is the metadata endpoint now; the entry
	// survived the failed PATCHes, so it must describe the original dataset.
	getResp, err := http.Get(ts.URL + "/v1/datasets/" + cold.DatasetHash)
	if err != nil {
		t.Fatal(err)
	}
	var info server.DatasetInfoResponse
	err = json.NewDecoder(getResp.Body).Decode(&info)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK || err != nil {
		t.Errorf("GET /v1/datasets: %d (%v), want 200", getResp.StatusCode, err)
	} else if info.DatasetHash != cold.DatasetHash {
		t.Errorf("GET /v1/datasets: hash %s, want %s", info.DatasetHash, cold.DatasetHash)
	}
	// A wrong method still 405s.
	putReq, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/"+cold.DatasetHash, nil)
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := http.DefaultClient.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/datasets: %d, want 405", putResp.StatusCode)
	}
}

// TestConcurrentPatchAndAggregate hammers one server with 16 goroutines
// of mixed PATCH and aggregate traffic under -race. Every aggregate
// response must score correctly for whichever dataset snapshot (base or
// grown) its hash names — a wrong pairing would mean a request observed
// a session mid-mutation.
func TestConcurrentPatchAndAggregate(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	baseReq := smallRequest("BordaCount")
	grownReq := smallRequest("BordaCount")
	grownReq.Rankings = append(grownReq.Rankings, extraRanking())
	scoreOf := func(rks []*rankings.Ranking) int64 {
		sess, err := rankagg.NewSession(rankings.NewDataset(4, rks...))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(t.Context(), "BordaCount")
		if err != nil {
			t.Fatal(err)
		}
		return res.Score
	}
	baseScore, grownScore := scoreOf(baseReq.Rankings), scoreOf(grownReq.Rankings)

	_, data := postAggregate(t, ts.URL, baseReq)
	var cold server.AggregateResponse
	if err := json.Unmarshal(data, &cold); err != nil {
		t.Fatal(err)
	}
	baseHash := cold.DatasetHash

	var mu sync.Mutex
	curHash := baseHash
	readHash := func() string { mu.Lock(); defer mu.Unlock(); return curHash }
	setHash := func(h string) { mu.Lock(); defer mu.Unlock(); curHash = h }

	const G = 16
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 15; i++ {
				if g%2 == 0 {
					req := baseReq
					want := baseScore
					wantHash := baseHash
					if rng.Intn(2) == 0 {
						req, want = grownReq, grownScore
						wantHash = ""
					}
					resp, data := postAggregate(t, ts.URL, req)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("aggregate: %d %s", resp.StatusCode, data)
						return
					}
					var res server.AggregateResponse
					if err := json.Unmarshal(data, &res); err != nil {
						t.Error(err)
						return
					}
					if res.Score != want {
						t.Errorf("score %d for dataset %s, want %d", res.Score, res.DatasetHash, want)
						return
					}
					if wantHash != "" && res.DatasetHash != wantHash {
						t.Errorf("base dataset hashed to %s, want %s", res.DatasetHash, wantHash)
						return
					}
				} else {
					// Toggle the extra ranking on whatever entry the chain
					// currently names; losing the race (404/409) is fine.
					h := readHash()
					op := server.PatchOp{Remove: extraRanking()}
					if h == baseHash {
						op = server.PatchOp{Add: extraRanking()}
					}
					body := server.PatchRequest{Ops: []server.PatchOp{op}}
					resp, data := doPatch(t, ts.URL, h, body)
					switch resp.StatusCode {
					case http.StatusOK:
						var pr server.PatchResponse
						if err := json.Unmarshal(data, &pr); err != nil {
							t.Error(err)
							return
						}
						setHash(pr.DatasetHash)
					case http.StatusNotFound, http.StatusConflict:
						// Another goroutine moved or toggled the entry first.
					default:
						t.Errorf("PATCH: %d %s", resp.StatusCode, data)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPatchRespectsMatrixByteBudget: a delta that would promote the
// cached matrix past the -max-elements byte budget (int16 → int32 at
// m = 32768 doubles the backing) is rejected with 413 BEFORE mutating —
// the session keeps serving its old hash — while a shrinking delta on the
// same session passes. The 32,767-ranking dataset is PUT over HTTP: about
// 0.5 MB, well under the body cap.
func TestPatchRespectsMatrixByteBudget(t *testing.T) {
	base := rankings.New([]int{0, 1}, []int{2}, []int{3})
	other := rankings.New([]int{3}, []int{2, 1}, []int{0})
	rks := make([]*rankings.Ranking, 32767)
	for i := range rks {
		rks[i] = base
	}
	rks[0] = other
	// Budget 12·3² = 108 bytes: holds the 64-byte compact matrix, not the
	// 128-byte widened one a 32768th ranking would force.
	_, ts := newTestServer(t, server.Config{MaxElements: 3})
	created, _ := putDataset(t, ts.URL, rankings.DatasetWire{N: 4, Rankings: rks})
	hash := created.DatasetHash
	if info := datasetInfo(t, ts.URL, hash); info.MatrixBytes != 64 {
		t.Fatalf("fixture matrix_bytes = %d, want 64 (int16 + derived-tied)", info.MatrixBytes)
	}

	resp, data := doPatch(t, ts.URL, hash, server.PatchRequest{Ops: []server.PatchOp{{Add: other}}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget PATCH: %d %s, want 413", resp.StatusCode, data)
	}
	if info := datasetInfo(t, ts.URL, hash); !info.Cached || info.MatrixDeltas != 0 || info.M != 32767 {
		t.Fatalf("rejected PATCH moved the entry off its old hash or mutated it: %+v", info)
	}
	if text := scrape(t, ts.URL); !strings.Contains(text, `rankagg_admission_rejected_total{reason="delta-budget"} 1`) {
		t.Errorf("rejected delta not counted in rankagg_admission_rejected_total:\n%s", text)
	}

	// A delta that stays inside the budget still goes through.
	resp, data = doPatch(t, ts.URL, hash, server.PatchRequest{Ops: []server.PatchOp{{Remove: other}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shrinking PATCH: %d %s, want 200", resp.StatusCode, data)
	}
	var shrunk server.PatchResponse
	decodeJSON(t, data, &shrunk)
	if info := datasetInfo(t, ts.URL, shrunk.DatasetHash); !info.Cached || info.MatrixDeltas != 1 || info.M != 32766 {
		t.Fatalf("after the shrinking PATCH: %+v, want the cached session with 1 delta", info)
	}
}

// datasetInfo GETs /v1/datasets/{hash} and fails the test on any answer but
// 200.
func datasetInfo(t *testing.T, url, hash string) server.DatasetInfoResponse {
	t.Helper()
	resp, data := doJSON(t, http.MethodGet, url+"/v1/datasets/"+hash, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/datasets/%s: %d %s", hash, resp.StatusCode, data)
	}
	var info server.DatasetInfoResponse
	decodeJSON(t, data, &info)
	return info
}

// TestPatchOverBudgetPersisted: a persisted complete dataset whose pair
// matrix the byte budget cannot hold is served matrix-free, and a PATCH
// of it goes through there, as it does for the same dataset held by the
// approx cache of an ephemeral server. The budget guards the matrix a
// cached session holds; the next exact run is admitted or routed anew.
func TestPatchOverBudgetPersisted(t *testing.T) {
	for _, persisted := range []bool{false, true} {
		cfg := server.Config{MaxElements: routeMaxElements}
		if persisted {
			cfg.Store = openStore(t, t.TempDir())
		}
		_, ts := newTestServer(t, cfg)
		req := overBudgetRequest("BordaCount")
		var agg server.AggregateResponse
		if persisted {
			created, _ := putDataset(t, ts.URL, req.DatasetWire)
			agg, _ = aggregateHash(t, ts.URL, created.DatasetHash, "BordaCount")
		} else {
			resp, data := postAggregate(t, ts.URL, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("inline aggregate: %d %s", resp.StatusCode, data)
			}
			decodeJSON(t, data, &agg)
		}
		if !agg.Approx || agg.Algorithm != "lehmer" {
			t.Fatalf("persisted=%v: over-budget BordaCount ran %s approx=%v, want lehmer matrix-free", persisted, agg.Algorithm, agg.Approx)
		}
		add := rankings.FromPermutation(identityPerm(overBudgetN))
		resp, data := doPatch(t, ts.URL, agg.DatasetHash, server.PatchRequest{Ops: []server.PatchOp{{Add: add}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("persisted=%v: PATCH: %d %s, want 200", persisted, resp.StatusCode, data)
		}
		var patched server.PatchResponse
		decodeJSON(t, data, &patched)
		if !patched.Approx || patched.Persisted != persisted || patched.M != 3 {
			t.Fatalf("persisted=%v: PATCH answered %+v", persisted, patched)
		}
		grown, _ := aggregateHash(t, ts.URL, patched.DatasetHash, "BordaCount")
		if !grown.Approx || grown.M != 3 {
			t.Fatalf("persisted=%v: aggregate after the PATCH: %+v", persisted, grown)
		}
	}
}

// TestPatchOverBudgetCachedPersisted: a delta that would grow a cached
// matrix past the byte budget is not refused when the dataset is
// persisted. The store logs it and the matrix session is dropped, so the
// PATCH answers as it would once that session were evicted, and the next
// exact run is admitted anew: routed matrix-free under -approx-mode auto,
// 413 under off. 127 permutations of 64 elements fill an int8 matrix
// (2·64² = 8192 bytes) inside the 12·30² = 10800-byte budget; a 128th
// promotes it to int16 (16384 bytes), while the matrix-free state of 64
// elements (10240 bytes) still fits.
func TestPatchOverBudgetCachedPersisted(t *testing.T) {
	const n, m, maxElements = 64, 127, 30
	perm := identityPerm(n)
	rev := make([]int, n)
	for i := range rev {
		rev[i] = n - 1 - i
	}
	wire := rankings.DatasetWire{N: n}
	for i := range m {
		if i%2 == 0 {
			wire.Rankings = append(wire.Rankings, rankings.FromPermutation(perm))
		} else {
			wire.Rankings = append(wire.Rankings, rankings.FromPermutation(rev))
		}
	}
	for _, mode := range []server.ApproxMode{server.ApproxAuto, server.ApproxOff} {
		_, ts := newTestServer(t, server.Config{MaxElements: maxElements, ApproxMode: mode, Store: openStore(t, t.TempDir())})
		created, _ := putDataset(t, ts.URL, wire)
		if agg, _ := aggregateHash(t, ts.URL, created.DatasetHash, "BordaCount"); agg.Approx {
			t.Fatalf("%s: the fixture ran matrix-free: %+v", mode, agg)
		}
		if info := datasetInfo(t, ts.URL, created.DatasetHash); !info.Cached || info.MatrixBytes != 2*n*n {
			t.Fatalf("%s: fixture %+v, want a cached %d-byte matrix", mode, info, 2*n*n)
		}

		resp, data := doPatch(t, ts.URL, created.DatasetHash, server.PatchRequest{Ops: []server.PatchOp{{Add: rankings.FromPermutation(perm)}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: PATCH past the cached matrix's budget: %d %s, want 200", mode, resp.StatusCode, data)
		}
		var patched server.PatchResponse
		decodeJSON(t, data, &patched)
		if !patched.Persisted || patched.M != m+1 || patched.MatrixDeltas != 0 || patched.Approx {
			t.Fatalf("%s: PATCH answered %+v, want persisted with no session taking the delta", mode, patched)
		}
		if info := datasetInfo(t, ts.URL, patched.DatasetHash); info.Cached || !info.Persisted || info.M != m+1 || info.Version != 1 {
			t.Fatalf("%s: after the PATCH: %+v, want the store's dataset and no cached session", mode, info)
		}

		resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+patched.DatasetHash+"/aggregate",
			map[string]any{"spec": map[string]any{"algorithm": "BordaCount"}})
		text := scrape(t, ts.URL)
		if !strings.Contains(text, `rankagg_admission_rejected_total{reason="delta-budget"} 0`) {
			t.Errorf("%s: the PATCH counted a delta-budget rejection", mode)
		}
		if mode == server.ApproxOff {
			if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(text, `rankagg_admission_rejected_total{reason="matrix-budget"} 1`) {
				t.Fatalf("off: next exact run: %d %s, want 413 counted as matrix-budget", resp.StatusCode, data)
			}
			continue
		}
		var agg server.AggregateResponse
		if resp.StatusCode == http.StatusOK {
			decodeJSON(t, data, &agg)
		}
		if !agg.Approx || agg.M != m+1 {
			t.Fatalf("auto: next exact run: %d %s, want it routed matrix-free", resp.StatusCode, data)
		}
	}
}

// TestCompactionMetrics drives the idle re-compaction loop through the
// HTTP surface: a 127-ranking dataset builds an int8-tiled matrix (32
// bytes at n = 4), a PATCH add/remove roundtrip promotes it to int16 (64
// bytes — delta promotions are one-way), and the background compactor
// re-packs it. The rankagg_cache_bytes gauge must drop back to the
// pre-promotion footprint and the compaction counters must show up on
// /metrics.
func TestCompactionMetrics(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})
	base := rankings.New([]int{0, 1}, []int{2}, []int{3})
	req := server.AggregateRequest{
		Spec: &rankagg.RunSpec{Algorithm: "BioConsert"},
		DatasetWire: rankings.DatasetWire{
			Names:    []string{"A", "B", "C", "D"},
			Rankings: make([]*rankings.Ranking, 127),
		},
	}
	for i := range req.Rankings {
		req.Rankings[i] = base
	}
	resp, data := postAggregate(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold build: %d %s", resp.StatusCode, data)
	}
	var cold server.AggregateResponse
	if err := json.Unmarshal(data, &cold); err != nil {
		t.Fatal(err)
	}
	const compactBytes, widenedBytes = 2 * 1 * 4 * 4, 2 * 2 * 4 * 4
	if got := s.CacheStats().Bytes; got != compactBytes {
		t.Fatalf("cold cache bytes = %d, want %d (int8 tiles)", got, compactBytes)
	}

	resp, data = doPatch(t, ts.URL, cold.DatasetHash, server.PatchRequest{Ops: []server.PatchOp{{Add: extraRanking()}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promoting PATCH: %d %s", resp.StatusCode, data)
	}
	var grown server.PatchResponse
	if err := json.Unmarshal(data, &grown); err != nil {
		t.Fatal(err)
	}
	resp, data = doPatch(t, ts.URL, grown.DatasetHash, server.PatchRequest{Ops: []server.PatchOp{{Remove: extraRanking()}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("removing PATCH: %d %s", resp.StatusCode, data)
	}
	if got := s.CacheStats().Bytes; got != widenedBytes {
		t.Fatalf("post-roundtrip cache bytes = %d, want %d (promotion sticks)", got, widenedBytes)
	}

	// The background compactor only sweeps an idle server; this one is.
	stop := s.StartCompactor(2 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	var text string
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		text = string(data)
		if strings.Contains(text, "rankagg_matrix_compactions_total 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compactor never re-packed the promoted matrix:\n%s", text)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	for _, want := range []string{
		fmt.Sprintf("rankagg_matrix_compact_reclaimed_bytes_total %d", widenedBytes-compactBytes),
		fmt.Sprintf("rankagg_cache_bytes %d", compactBytes), // the gauge drop
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	if got := s.CacheStats().Bytes; got != compactBytes {
		t.Errorf("cache bytes after compaction = %d, want %d", got, compactBytes)
	}
	// An explicit sweep on the already-compact cache is a no-op.
	if n, freed := s.CompactNow(); n != 0 || freed != 0 {
		t.Errorf("CompactNow on compact cache reclaimed %d entries / %d bytes", n, freed)
	}
}
