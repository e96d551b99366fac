package server_test

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"rankagg"
	"rankagg/internal/rankings"
	"rankagg/internal/server"
)

// topListsDataset decodes the wire lists the tests post, so oracles can run
// on exactly the dataset the server saw.
func topListsDataset(t *testing.T, n int, lists [][]int) *rankings.Dataset {
	t.Helper()
	tw := rankings.TopListsWire{N: n, TopLists: lists}
	d, _, err := tw.Decode()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestApproxConsensusCached: approx-tier results are deterministic, so the
// second identical toplists POST is a pure consensus hit — no solver run,
// consensus_hit: true, and the same consensus and score.
func TestApproxConsensusCached(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})
	req := server.AggregateRequest{
		Spec:     &rankagg.RunSpec{Algorithm: "lehmer"},
		TopLists: [][]int{{0, 1, 3}, {2, 0}, {1, 2, 4}},
	}
	resp, data := postAggregate(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first toplists POST: %d %s", resp.StatusCode, data)
	}
	var first server.AggregateResponse
	decodeJSON(t, data, &first)
	if !first.Approx || first.ConsensusHit {
		t.Fatalf("first POST: approx=%v consensus_hit=%v, want true/false", first.Approx, first.ConsensusHit)
	}

	resp, data = postAggregate(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second toplists POST: %d %s", resp.StatusCode, data)
	}
	var second server.AggregateResponse
	decodeJSON(t, data, &second)
	if !second.ConsensusHit || !second.CacheHit || !second.Approx {
		t.Errorf("second POST: consensus_hit=%v cache_hit=%v approx=%v, want all true",
			second.ConsensusHit, second.CacheHit, second.Approx)
	}
	if !second.Consensus.Equal(first.Consensus) || second.Score != first.Score {
		t.Errorf("cached result diverged: (%v, %d) vs (%v, %d)",
			second.Consensus, second.Score, first.Consensus, first.Score)
	}
	if cs := s.ConsensusStats(); cs.Hits != 1 || cs.Runs != 1 {
		t.Errorf("consensus stats = %+v, want 1 hit / 1 run", cs)
	}
	// The approx session itself was cached by the first request, so a
	// different spec on the same dataset hits the session, not the builder.
	req.Spec = &rankagg.RunSpec{Algorithm: "avgrank"}
	resp, data = postAggregate(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("avgrank POST: %d %s", resp.StatusCode, data)
	}
	var third server.AggregateResponse
	decodeJSON(t, data, &third)
	if third.ConsensusHit || !third.CacheHit {
		t.Errorf("new spec on warm session: consensus_hit=%v cache_hit=%v, want false/true", third.ConsensusHit, third.CacheHit)
	}
	if as := s.ApproxCacheStats(); as.Builds != 1 || as.Hits < 1 {
		t.Errorf("approx cache stats = %+v, want 1 build and at least 1 hit", as)
	}
	// The oracle agrees with what was served.
	d := topListsDataset(t, 0, req.TopLists)
	ref, err := rankagg.RunMatrixFree(context.Background(), "lehmer", d)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Consensus.Equal(ref.Consensus) || first.Score != ref.Score {
		t.Errorf("served (%v, %d) != oracle (%v, %d)", first.Consensus, first.Score, ref.Consensus, ref.Score)
	}
}

// TestApproxPatchEphemeral drives the no-store PATCH flow on a toplists
// dataset: PUT creates an approx-tier cache entry, PATCH applies a PARTIAL
// add through the incremental state (the matrix tier would reject it), the
// hash rotates, and the re-aggregation matches a cold oracle over the
// mutated dataset.
func TestApproxPatchEphemeral(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})
	lists := [][]int{{0, 2, 4}, {1, 0, 3}, {4, 1}}
	resp, data := doJSON(t, http.MethodPut, ts.URL+"/v1/datasets",
		map[string]any{"n": 5, "toplists": lists})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT toplists: %d %s", resp.StatusCode, data)
	}
	var created server.DatasetCreateResponse
	decodeJSON(t, data, &created)
	if created.Persisted || created.N != 5 || created.M != 3 {
		t.Fatalf("created = %+v", created)
	}

	// Idempotent re-PUT is a 200 on the cached approx entry.
	if resp, _ = doJSON(t, http.MethodPut, ts.URL+"/v1/datasets", map[string]any{"n": 5, "toplists": lists}); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-PUT: %d, want 200", resp.StatusCode)
	}

	// Info and listing report the approx-tier entry.
	resp, data = doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+created.DatasetHash, nil)
	var info server.DatasetInfoResponse
	decodeJSON(t, data, &info)
	if resp.StatusCode != http.StatusOK || !info.Approx || !info.Cached || info.ApproxStateBytes <= 0 {
		t.Fatalf("info = %+v (%d)", info, resp.StatusCode)
	}

	// PATCH a partial top-k list in — only the approx tier admits it.
	patch := map[string]any{"ops": []map[string]any{
		{"add": rankings.New([]int{3}, []int{2})},
	}}
	resp, data = doJSON(t, http.MethodPatch, ts.URL+"/v1/datasets/"+created.DatasetHash, patch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH: %d %s", resp.StatusCode, data)
	}
	var pr server.PatchResponse
	decodeJSON(t, data, &pr)
	if !pr.DeltaApplied || !pr.Approx || pr.ApproxDeltas != 1 || pr.Persisted {
		t.Fatalf("patch response = %+v", pr)
	}
	if pr.DatasetHash == created.DatasetHash || resp.Header.Get("Location") != "/v1/datasets/"+pr.DatasetHash {
		t.Fatalf("hash did not rotate with Location: %+v", pr)
	}
	if pr.M != 4 {
		t.Errorf("post-patch m = %d, want 4", pr.M)
	}

	// Aggregating the rotated hash serves the delta-maintained state; the
	// answer must equal a cold run over the mutated dataset.
	agg, httpResp := aggregateHash(t, ts.URL, pr.DatasetHash, "lehmer")
	if !agg.Approx || httpResp.Header.Get("X-Rankagg-Tier") != "approx" {
		t.Fatalf("aggregate after patch: %+v", agg)
	}
	d := topListsDataset(t, 5, lists)
	mutated := rankings.NewDataset(5, append(append([]*rankings.Ranking{}, d.Rankings...), rankings.New([]int{3}, []int{2}))...)
	ref, err := rankagg.RunMatrixFree(context.Background(), "lehmer", mutated)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Consensus.Equal(ref.Consensus) || agg.Score != ref.Score {
		t.Errorf("served (%v, %d) != oracle (%v, %d)", agg.Consensus, agg.Score, ref.Consensus, ref.Score)
	}

	// The old hash is gone; PATCHing it is the 404 fallback.
	if resp, _ = doJSON(t, http.MethodPatch, ts.URL+"/v1/datasets/"+created.DatasetHash, patch); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("PATCH of rotated-away hash: %d, want 404", resp.StatusCode)
	}

	// Metrics carry the new counters.
	text := scrape(t, ts.URL)
	for _, want := range []string{
		"rankagg_approx_delta_applied_total 1",
		"rankagg_approx_cache_rekeys_total 1",
		"rankagg_approx_cache_entries 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// DELETE evicts the approx entry.
	if resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/"+pr.DatasetHash, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	if as := s.ApproxCacheStats(); as.Entries != 0 {
		t.Errorf("approx cache still holds %d entries after DELETE", as.Entries)
	}
}

// TestApproxPatchPersisted drives the store-backed flow: PUT a toplists
// dataset (durable, incomplete), aggregate it (rebuilds an approx session
// from the store), PATCH partial adds and a removal write-ahead through
// the delta log AND the live approx session, and a restarted server
// answers the repeat aggregation from its preloaded consensus.
func TestApproxPatchPersisted(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	_, ts := newTestServer(t, server.Config{Store: st})

	lists := [][]int{{0, 3, 1}, {2, 4}, {1, 2, 0, 5}}
	resp, data := doJSON(t, http.MethodPut, ts.URL+"/v1/datasets", map[string]any{"n": 6, "toplists": lists})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT toplists: %d %s", resp.StatusCode, data)
	}
	var created server.DatasetCreateResponse
	decodeJSON(t, data, &created)
	if !created.Persisted {
		t.Fatalf("created = %+v, want persisted", created)
	}

	// First aggregation rebuilds the approx session from the store.
	agg, _ := aggregateHash(t, ts.URL, created.DatasetHash, "lehmer")
	if !agg.Approx || agg.ConsensusHit {
		t.Fatalf("first aggregate: %+v", agg)
	}

	// A PARTIAL add and a removal in one atomic write-ahead delta.
	patch := map[string]any{"ops": []map[string]any{
		{"add": rankings.New([]int{5}, []int{0}, []int{3})},
		{"remove": rankings.New([]int{2}, []int{4})},
	}}
	resp, data = doJSON(t, http.MethodPatch, ts.URL+"/v1/datasets/"+created.DatasetHash, patch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH: %d %s", resp.StatusCode, data)
	}
	var pr server.PatchResponse
	decodeJSON(t, data, &pr)
	if !pr.Persisted || !pr.DeltaApplied || !pr.Approx || pr.ApproxDeltas != 1 {
		t.Fatalf("patch response = %+v, want persisted+approx delta", pr)
	}

	// Serve the rotated hash and check against a cold oracle.
	agg, _ = aggregateHash(t, ts.URL, pr.DatasetHash, "lehmer")
	d := topListsDataset(t, 6, lists)
	mutated := rankings.NewDataset(6,
		d.Rankings[0], d.Rankings[2], rankings.New([]int{5}, []int{0}, []int{3}))
	ref, err := rankagg.RunMatrixFree(context.Background(), "lehmer", mutated)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Consensus.Equal(ref.Consensus) || agg.Score != ref.Score {
		t.Errorf("served (%v, %d) != oracle (%v, %d)", agg.Consensus, agg.Score, ref.Consensus, ref.Score)
	}

	// A restart preloads the persisted approx consensus: the repeat
	// aggregation is a consensus hit with zero solver runs.
	ts.Close()
	st.Close()
	st2 := openStore(t, dir)
	_, ts2 := newTestServer(t, server.Config{Store: st2})
	agg, _ = aggregateHash(t, ts2.URL, pr.DatasetHash, "lehmer")
	if !agg.ConsensusHit || !agg.Approx {
		t.Errorf("restarted aggregate: consensus_hit=%v approx=%v, want both true", agg.ConsensusHit, agg.Approx)
	}
	if !agg.Consensus.Equal(ref.Consensus) || agg.Score != ref.Score {
		t.Errorf("restarted result diverged from oracle")
	}
}

// TestApproxPatchValidation: partial adds stay illegal where they always
// were — a complete cache-only dataset PATCHed with a short ranking is a
// 400 from the matrix leg, never silently diverted to the approx tier.
func TestApproxPatchValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	wire := smallRequest("BioConsert").DatasetWire
	created, _ := putDataset(t, ts.URL, wire)
	patch := map[string]any{"ops": []map[string]any{
		{"add": rankings.New([]int{0}, []int{1})}, // covers 2 of 4 elements
	}}
	resp, data := doJSON(t, http.MethodPatch, ts.URL+"/v1/datasets/"+created.DatasetHash, patch)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("partial add on complete dataset: %d %s, want 400", resp.StatusCode, data)
	}
}

// TestPatchRekeysBothCaches: one complete ephemeral dataset, run once
// matrix-free and once exact, lives in both session caches under one hash.
// A PATCH moves both entries to the new hash, so the old hash answers 404
// everywhere and the approx session keeps its incremental state. A PATCH of
// a dataset only the matrix tier holds still probes the approx cache, and
// that probe counts as an approx-cache miss.
func TestPatchRekeysBothCaches(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})
	created, _ := putDataset(t, ts.URL, smallRequest("").DatasetWire)
	hash := created.DatasetHash
	if res, _ := aggregateHash(t, ts.URL, hash, "lehmer"); !res.Approx {
		t.Fatalf("lehmer ran on the exact tier: %+v", res)
	}
	if res, _ := aggregateHash(t, ts.URL, hash, "BordaCount"); res.Approx {
		t.Fatalf("BordaCount ran on the approx tier: %+v", res)
	}
	resp, data := doPatch(t, ts.URL, hash, server.PatchRequest{Ops: []server.PatchOp{{Add: extraRanking()}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH: %d %s", resp.StatusCode, data)
	}
	var pr server.PatchResponse
	decodeJSON(t, data, &pr)
	if pr.MatrixDeltas != 1 || !pr.Approx || pr.ApproxDeltas != 1 {
		t.Fatalf("PATCH = %s, want the delta applied to both sessions", data)
	}
	if st, as := s.CacheStats(), s.ApproxCacheStats(); st.Rekeys != 1 || as.Rekeys != 1 || st.Entries != 1 || as.Entries != 1 {
		t.Fatalf("after PATCH: session cache %+v, approx cache %+v; want one re-keyed entry each", st, as)
	}
	if resp, data := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+hash, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET old hash after PATCH: %d %s, want 404", resp.StatusCode, data)
	}
	resp, data = doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+pr.DatasetHash, nil)
	var info server.DatasetInfoResponse
	decodeJSON(t, data, &info)
	if resp.StatusCode != http.StatusOK || !info.Approx || info.ApproxDeltas != 1 || info.MatrixDeltas != 1 {
		t.Fatalf("GET new hash: %d %s, want both sessions with one delta each", resp.StatusCode, data)
	}
	if res, _ := aggregateHash(t, ts.URL, pr.DatasetHash, "lehmer"); !res.CacheHit {
		t.Errorf("lehmer on the new hash missed the re-keyed approx session: %+v", res)
	}

	other, _ := putDataset(t, ts.URL, rankings.DatasetWire{Rankings: []*rankings.Ranking{
		rankings.New([]int{0}, []int{1, 2}), rankings.New([]int{2}, []int{0}, []int{1}),
	}})
	misses := s.ApproxCacheStats().Misses
	resp, data = doPatch(t, ts.URL, other.DatasetHash, server.PatchRequest{Ops: []server.PatchOp{{Add: rankings.New([]int{1}, []int{0, 2})}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH matrix-only dataset: %d %s", resp.StatusCode, data)
	}
	if got := s.ApproxCacheStats().Misses; got != misses+1 {
		t.Errorf("approx cache misses %d → %d across a matrix-tier PATCH, want one probe", misses, got)
	}
}
