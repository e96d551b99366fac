package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rankagg/internal/rankings"
	"rankagg/internal/server"
	"rankagg/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func doJSON(t *testing.T, method, url string, req any) (*http.Response, []byte) {
	t.Helper()
	var body []byte
	if req != nil {
		var err error
		body, err = json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
	}
	httpReq, err := http.NewRequest(method, url, bytes.NewReader(body))
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

func putDataset(t *testing.T, url string, wire rankings.DatasetWire) (server.DatasetCreateResponse, int) {
	t.Helper()
	resp, data := doJSON(t, http.MethodPut, url+"/v1/datasets", wire)
	var out server.DatasetCreateResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("PUT response: %v (%s)", err, data)
		}
	} else {
		t.Fatalf("PUT /v1/datasets: %d %s", resp.StatusCode, data)
	}
	return out, resp.StatusCode
}

func aggregateHash(t *testing.T, url, hash, algorithm string) (server.AggregateResponse, *http.Response) {
	t.Helper()
	resp, data := doJSON(t, http.MethodPost, url+"/v1/datasets/"+hash+"/aggregate",
		map[string]any{"spec": map[string]any{"algorithm": algorithm}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/datasets/%s/aggregate: %d %s", hash, resp.StatusCode, data)
	}
	var out server.AggregateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("aggregate response: %v (%s)", err, data)
	}
	return out, resp
}

// TestDatasetResourceLifecycle drives the new resource surface on an
// ephemeral server (no store): PUT is idempotent by content, the hash
// endpoints serve from the cache, and DELETE evicts.
func TestDatasetResourceLifecycle(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	wire := smallRequest("BioConsert").DatasetWire

	created, code := putDataset(t, ts.URL, wire)
	if code != http.StatusCreated || !created.Created || created.Persisted || created.N != 4 || created.M != 3 {
		t.Fatalf("first PUT: code=%d %+v", code, created)
	}
	again, code := putDataset(t, ts.URL, wire)
	if code != http.StatusOK || again.Created || again.DatasetHash != created.DatasetHash {
		t.Fatalf("second PUT: code=%d %+v", code, again)
	}

	resp, data := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil)
	var list struct {
		Datasets []server.DatasetListEntry `json:"datasets"`
		Total    int                       `json:"total"`
	}
	if err := json.Unmarshal(data, &list); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/datasets: %d %s (%v)", resp.StatusCode, data, err)
	}
	if list.Total != 1 || len(list.Datasets) != 1 || !list.Datasets[0].Cached || list.Datasets[0].Persisted {
		t.Fatalf("listing = %+v", list)
	}

	agg, httpResp := aggregateHash(t, ts.URL, created.DatasetHash, "BioConsert")
	if agg.DatasetHash != created.DatasetHash || !agg.CacheHit {
		t.Fatalf("canonical aggregate: %+v", agg)
	}
	if tier := httpResp.Header.Get("X-Rankagg-Tier"); tier != "exact" {
		t.Fatalf("X-Rankagg-Tier = %q, want exact", tier)
	}
	// The alias surface answers identically for the same dataset + spec.
	resp2, data2 := postAggregate(t, ts.URL, smallRequest("BioConsert"))
	var alias server.AggregateResponse
	if err := json.Unmarshal(data2, &alias); err != nil || resp2.StatusCode != http.StatusOK {
		t.Fatalf("alias POST: %d %s", resp2.StatusCode, data2)
	}
	if !alias.ConsensusHit || alias.Score != agg.Score {
		t.Fatalf("alias result diverged: %+v vs %+v", alias, agg)
	}
	// A body smuggling rankings into the hash endpoint is rejected.
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/"+created.DatasetHash+"/aggregate", smallRequest("BioConsert"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hash aggregate with inline rankings: %d %s", resp.StatusCode, data)
	}

	resp, data = doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/"+created.DatasetHash, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d %s", resp.StatusCode, data)
	}
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+created.DatasetHash, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE: %d, want 404", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/"+created.DatasetHash, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE: %d, want 404", resp.StatusCode)
	}
}

// TestConsensusNamesFromStore: the element names of a persisted dataset
// come from the store whatever the caches hold, so every by-hash answer
// carries consensus_names — the first solve, its consensus hit and runs on
// the session it left cached.
func TestConsensusNamesFromStore(t *testing.T) {
	_, ts := newTestServer(t, server.Config{Store: openStore(t, t.TempDir())})
	wire := smallRequest("BioConsert").DatasetWire
	created, _ := putDataset(t, ts.URL, wire)
	u := rankings.NewUniverse()
	for _, nm := range wire.Names {
		u.ID(nm)
	}
	for i, alg := range []string{"BioConsert", "BioConsert", "BordaCount", "lehmer"} {
		agg, _ := aggregateHash(t, ts.URL, created.DatasetHash, alg)
		want := rankings.BucketNames(agg.Consensus, u)
		if i == 0 && !slices.EqualFunc(want, [][]string{{"A"}, {"D"}, {"B", "C"}}, slices.Equal) {
			t.Fatalf("BioConsert consensus %v, want the §2.2 optimum [{A},{D},{B,C}]", want)
		}
		if !slices.EqualFunc(agg.ConsensusNames, want, slices.Equal) {
			t.Errorf("request %d (%s, consensus_hit=%v): consensus_names %v, want %v", i, alg, agg.ConsensusHit, agg.ConsensusNames, want)
		}
	}
}

// TestPersistedRestartRecovery is the tentpole acceptance test at the
// serving layer: create + PATCH + aggregate against a store-backed server,
// then bring up a FRESH server + store on the same data dir (the restart)
// and assert the dataset answers GET, a repeat aggregate is a consensus
// hit with zero solver runs, a further PATCH both write-aheads and
// harvests the preloaded consensus as a warm hint, and the rebuild went
// through store replay.
func TestPersistedRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	_, ts1 := newTestServer(t, server.Config{Store: st1})

	created, _ := putDataset(t, ts1.URL, smallRequest("BioConsert").DatasetWire)
	if !created.Persisted {
		t.Fatalf("PUT with a store: %+v not persisted", created)
	}
	h0 := created.DatasetHash
	first, _ := aggregateHash(t, ts1.URL, h0, "BioConsert")
	if first.ConsensusHit {
		t.Fatalf("first aggregate claims a consensus hit")
	}

	// Batch PATCH through the ops wire; the rotation contract says the new
	// handle arrives in both dataset_hash and Location.
	resp, data := doPatch(t, ts1.URL, h0, server.PatchRequest{Ops: []server.PatchOp{
		{Add: extraRanking()},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH: %d %s", resp.StatusCode, data)
	}
	var patched server.PatchResponse
	if err := json.Unmarshal(data, &patched); err != nil {
		t.Fatal(err)
	}
	if !patched.Persisted || !patched.DeltaApplied || patched.MatrixDeltas == 0 {
		t.Fatalf("persisted PATCH: %+v", patched)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/datasets/"+patched.DatasetHash {
		t.Fatalf("Location = %q, want /v1/datasets/%s", loc, patched.DatasetHash)
	}
	h1 := patched.DatasetHash
	warm, _ := aggregateHash(t, ts1.URL, h1, "BioConsert")
	if !warm.Stats.WarmStart {
		t.Fatalf("post-PATCH solve did not warm-start: %+v", warm.Stats)
	}
	st1.Close()

	// ---- restart ----
	st2 := openStore(t, dir)
	s2, ts2 := newTestServer(t, server.Config{Store: st2})

	resp, data = doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets/"+h1, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted GET: %d %s", resp.StatusCode, data)
	}
	var info server.DatasetInfoResponse
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Persisted || info.Cached || info.M != 4 || info.Version != 1 || info.CachedConsensus == 0 {
		t.Fatalf("restarted info: %+v", info)
	}

	// The persisted consensus answers with ZERO solver runs.
	replay, _ := aggregateHash(t, ts2.URL, h1, "BioConsert")
	if !replay.ConsensusHit || replay.Score != warm.Score || !replay.Consensus.Equal(warm.Consensus) {
		t.Fatalf("restarted aggregate: %+v, want consensus hit matching %+v", replay, warm)
	}
	if runs := s2.ConsensusStats().Runs; runs != 0 {
		t.Fatalf("restarted server ran %d solves, want 0", runs)
	}
	if replays := st2.Stats().Replays; replays != 0 {
		t.Fatalf("consensus hit should not have rebuilt a session (replays=%d)", replays)
	}

	// A PATCH against the restarted (cold) server: no session is cached,
	// the store accepts the delta anyway, and the preloaded consensus of
	// the base hash demotes to the rotated hash's warm hint.
	resp, data = doPatch(t, ts2.URL, h1, server.PatchRequest{Ops: []server.PatchOp{
		{Remove: extraRanking()},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold PATCH: %d %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &patched); err != nil {
		t.Fatal(err)
	}
	if !patched.Persisted || patched.MatrixDeltas != 0 || patched.MatrixBuilds != 0 {
		t.Fatalf("cold PATCH should log without a session: %+v", patched)
	}
	h2 := patched.DatasetHash
	if h2 != h0 {
		t.Fatalf("add-then-remove of the same ranking rotated to %s, want the original %s", h2, h0)
	}
	resp, data = doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets/"+h2, nil)
	var hint server.DatasetInfoResponse
	if err := json.Unmarshal(data, &hint); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET rotated: %d %s", resp.StatusCode, data)
	}
	if !hint.WarmHint {
		t.Fatalf("preloaded consensus not harvested as a warm hint: %+v", hint)
	}

	// Aggregating the rotated hash rebuilds the session by store replay
	// (snapshot + log), warm-started from the harvested hint, and scores
	// exactly what the original pre-PATCH solve did — the dataset is
	// content-identical to the one the first server solved.
	final, _ := aggregateHash(t, ts2.URL, h2, "BioConsert")
	if final.ConsensusHit {
		t.Fatalf("rotated hash cannot be a consensus hit yet")
	}
	if !final.Stats.WarmStart {
		t.Fatalf("replayed solve did not consume the warm hint: %+v", final.Stats)
	}
	if final.Score != first.Score || !final.Consensus.Equal(first.Consensus) {
		t.Fatalf("replayed dataset solved differently: %+v vs %+v", final, first)
	}
	if replays := st2.Stats().Replays; replays < 1 {
		t.Fatalf("store replays = %d, want >= 1", replays)
	}
}

// TestPatchEvictedPersistedDataset is the acceptance criterion "a PATCH
// against a dataset evicted from the LRU succeeds via store replay
// instead of 404ing": with a one-entry cache, aggregating a second
// dataset evicts the first, whose PATCH must still land (write-ahead into
// the log) and whose next aggregation reconstructs by replay.
func TestPatchEvictedPersistedDataset(t *testing.T) {
	st := openStore(t, t.TempDir())
	s, ts := newTestServer(t, server.Config{Store: st, CacheEntries: 1})

	created, _ := putDataset(t, ts.URL, smallRequest("BioConsert").DatasetWire)
	h0 := created.DatasetHash
	aggregateHash(t, ts.URL, h0, "BordaCount")

	// A second dataset through the one-entry cache evicts the first.
	other := rankings.DatasetWire{Rankings: []*rankings.Ranking{
		rankings.New([]int{2}, []int{0}, []int{1}),
		rankings.New([]int{1}, []int{2}, []int{0}),
	}}
	created2, _ := putDataset(t, ts.URL, other)
	aggregateHash(t, ts.URL, created2.DatasetHash, "BordaCount")
	if st := s.CacheStats(); st.Evictions == 0 {
		t.Fatalf("second dataset did not evict the first: %+v", st)
	}

	resp, data := doPatch(t, ts.URL, h0, server.PatchRequest{Ops: []server.PatchOp{{Add: extraRanking()}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH of evicted dataset: %d %s", resp.StatusCode, data)
	}
	var patched server.PatchResponse
	if err := json.Unmarshal(data, &patched); err != nil {
		t.Fatal(err)
	}
	if !patched.Persisted || patched.M != 4 {
		t.Fatalf("evicted PATCH: %+v", patched)
	}
	res, _ := aggregateHash(t, ts.URL, patched.DatasetHash, "BordaCount")
	if res.M != 4 {
		t.Fatalf("replayed aggregate sees m=%d, want 4", res.M)
	}
	if replays := st.Stats().Replays; replays < 1 {
		t.Fatalf("store replays = %d, want >= 1", replays)
	}
	// And the never-cached dataset still 404s nowhere: it IS the store's.
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+patched.DatasetHash, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after replay: %d", resp.StatusCode)
	}
}

// TestBatchPatchWire pins the ops wire's contract: multi-op atomicity (one
// failing op rejects the whole batch, nothing logged), the retired flat
// lists rejected alone and beside "ops", and per-op shape validation.
func TestBatchPatchWire(t *testing.T) {
	st := openStore(t, t.TempDir())
	_, ts := newTestServer(t, server.Config{Store: st})

	created, _ := putDataset(t, ts.URL, smallRequest("BioConsert").DatasetWire)
	h0 := created.DatasetHash

	// One batch: two adds and a remove, atomically — one log record.
	second := rankings.New([]int{2}, []int{3}, []int{0, 1})
	resp, data := doPatch(t, ts.URL, h0, server.PatchRequest{Ops: []server.PatchOp{
		{Add: extraRanking()},
		{Remove: smallRequest("x").Rankings[0]},
		{Add: second},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch PATCH: %d %s", resp.StatusCode, data)
	}
	var patched server.PatchResponse
	if err := json.Unmarshal(data, &patched); err != nil {
		t.Fatal(err)
	}
	if patched.Added != 2 || patched.Removed != 1 || patched.M != 4 {
		t.Fatalf("batch PATCH counts: %+v", patched)
	}
	info, ok := st.Info(patched.DatasetHash)
	if !ok || info.LogRecords != 1 || info.Version != 3 {
		t.Fatalf("batch not one log record: %+v ok=%v", info, ok)
	}

	// Atomicity: a batch whose removal cannot match must change nothing.
	resp, data = doPatch(t, ts.URL, patched.DatasetHash, server.PatchRequest{Ops: []server.PatchOp{
		{Add: smallRequest("x").Rankings[0]},
		{Remove: rankings.New([]int{3}, []int{2}, []int{1}, []int{0})},
	}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unmatched removal in batch: %d %s, want 409", resp.StatusCode, data)
	}
	if after, _ := st.Info(patched.DatasetHash); after.Version != 3 || after.LogRecords != 1 {
		t.Fatalf("failed batch mutated the store: %+v", after)
	}

	// Wire-shape rejections.
	for _, bad := range []string{
		`{"ops":[{"add":[[0],[1],[2],[3]],"remove":[[0],[1],[2],[3]]}]}`, // both in one op
		`{"ops":[{}]}`, // neither
		`{"ops":[{"add":[[0],[1],[2],[3]]}],"add":[[[0],[1],[2],[3]]]}`, // ops + legacy
		`{"add":[[[0],[1],[2],[3]]]}`,                                   // the retired flat list
		`{"ops":[{"add":[[0],[1],[2],[3]]}],"remove":[]}`,               // ops + an empty legacy list
	} {
		resp, data = doPatch(t, ts.URL, patched.DatasetHash, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad wire %s: %d %s, want 400", bad, resp.StatusCode, data)
		}
	}
	if after, _ := st.Info(patched.DatasetHash); after.Version != 3 || after.LogRecords != 1 {
		t.Fatalf("a rejected wire form mutated the store: %+v", after)
	}
}

// TestPersistedVersionAfterCompaction: a persisted dataset reports the
// store's mutation version on GET /v1/datasets/{hash} and in the listing,
// also once a compaction has folded its deltas into the snapshot and a
// by-hash aggregate has rebuilt its session from that snapshot.
func TestPersistedVersionAfterCompaction(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir(), ReplayBudget: 1})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	_, ts := newTestServer(t, server.Config{Store: st})
	created, _ := putDataset(t, ts.URL, smallRequest("x").DatasetWire)
	hash := created.DatasetHash
	for range 3 {
		resp, data := doPatch(t, ts.URL, hash, server.PatchRequest{Ops: []server.PatchOp{{Add: extraRanking()}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("PATCH: %d %s", resp.StatusCode, data)
		}
		var patched server.PatchResponse
		decodeJSON(t, data, &patched)
		hash = patched.DatasetHash
	}
	stored, ok := st.Info(hash)
	if !ok || stored.Version != 3 || stored.LogRecords >= 3 {
		t.Fatalf("store after three PATCHes under ReplayBudget 1: %+v ok=%v, want version 3 and a compacted log", stored, ok)
	}
	for _, when := range []string{"before the rebuild", "after the rebuild"} {
		if info := datasetInfo(t, ts.URL, hash); info.Version != 3 || info.M != 6 {
			t.Errorf("%s: GET /v1/datasets/%s: version %d m %d, want 3 and 6", when, hash, info.Version, info.M)
		}
		resp, data := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil)
		var list struct {
			Datasets []server.DatasetListEntry `json:"datasets"`
		}
		if err := json.Unmarshal(data, &list); err != nil || resp.StatusCode != http.StatusOK || len(list.Datasets) != 1 {
			t.Fatalf("GET /v1/datasets: %d %s (%v)", resp.StatusCode, data, err)
		}
		if e := list.Datasets[0]; e.Version != 3 || e.M != 6 {
			t.Errorf("%s: listing %+v, want version 3 and m 6", when, e)
		}
		if when == "before the rebuild" {
			if agg, _ := aggregateHash(t, ts.URL, hash, "BioConsert"); agg.CacheHit {
				t.Fatalf("first by-hash aggregate reports a cache hit: %+v", agg)
			}
			if info := datasetInfo(t, ts.URL, hash); !info.Cached {
				t.Fatalf("the by-hash aggregate left no cached session: %+v", info)
			}
		}
	}
}

// TestCrashBetweenAppendAndRekey simulates the crash the write-ahead order
// exists for: the delta-log record is durable but the serving state (cache
// re-key, consensus rotation) never happened. The restarted server must
// surface the dataset under the post-delta hash, serve it byte-identically
// (same consensus, same score as the pre-crash solve of the same content),
// and keep the stale consensus as the rotated hash's warm hint.
func TestCrashBetweenAppendAndRekey(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	_, ts1 := newTestServer(t, server.Config{Store: st1})

	created, _ := putDataset(t, ts1.URL, smallRequest("BioConsert").DatasetWire)
	h0 := created.DatasetHash
	aggregateHash(t, ts1.URL, h0, "BioConsert")

	// The "crash": append straight to the store — the server's cache and
	// consensus never hear about it, exactly the state a kill between the
	// log fsync and the cache re-key leaves behind.
	h1, _, err := st1.AppendPatch(h0, []*rankings.Ranking{extraRanking()}, nil)
	if err != nil {
		t.Fatalf("AppendPatch: %v", err)
	}
	st1.Close()

	st2 := openStore(t, dir)
	_, ts2 := newTestServer(t, server.Config{Store: st2})

	resp, data := doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets/"+h0, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-crash hash still serves: %d %s", resp.StatusCode, data)
	}
	resp, data = doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets/"+h1, nil)
	var info server.DatasetInfoResponse
	if err := json.Unmarshal(data, &info); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post-crash GET: %d %s", resp.StatusCode, data)
	}
	if !info.WarmHint {
		t.Fatalf("stale consensus not demoted to a warm hint: %+v", info)
	}

	// The replayed dataset must solve exactly like a fresh build of the
	// same content (served by a store-less control server).
	got, _ := aggregateHash(t, ts2.URL, h1, "BioConsert")
	if !got.Stats.WarmStart {
		t.Fatalf("recovered solve did not consume the warm hint: %+v", got.Stats)
	}
	_, control := newTestServer(t, server.Config{})
	req := smallRequest("BioConsert")
	req.Rankings = append(req.Rankings, extraRanking())
	cresp, cdata := postAggregate(t, control.URL, req)
	var want server.AggregateResponse
	if err := json.Unmarshal(cdata, &want); err != nil || cresp.StatusCode != http.StatusOK {
		t.Fatalf("control aggregate: %d %s", cresp.StatusCode, cdata)
	}
	if want.DatasetHash != h1 {
		t.Fatalf("control hash %s != replayed %s", want.DatasetHash, h1)
	}
	if got.Score != want.Score || !got.Consensus.Equal(want.Consensus) {
		t.Fatalf("replayed solve diverged from fresh build: %+v vs %+v", got, want)
	}
}

// TestInvalidPersistedConsensusDropped restarts a server on a
// consensus.json holding one entry whose consensus is null and one that
// names an element outside the dataset. Neither may be served: the store
// drops both at open, so each aggregate answers 200 from a fresh solve,
// and the server stays healthy.
func TestInvalidPersistedConsensusDropped(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	_, ts1 := newTestServer(t, server.Config{Store: st1})
	created, _ := putDataset(t, ts1.URL, smallRequest("BioConsert").DatasetWire)
	h := created.DatasetHash
	algos := []string{"BioConsert", "BordaCount"}
	for _, a := range algos {
		aggregateHash(t, ts1.URL, h, a)
	}
	st1.Close()

	path := filepath.Join(dir, "datasets", h, "consensus.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cf struct {
		Hash    string                    `json:"hash"`
		Entries map[string]map[string]any `json:"entries"`
	}
	if err := json.Unmarshal(raw, &cf); err != nil {
		t.Fatal(err)
	}
	if len(cf.Entries) != len(algos) {
		t.Fatalf("consensus.json holds %d entries, want %d", len(cf.Entries), len(algos))
	}
	keys := slices.Sorted(maps.Keys(cf.Entries))
	cf.Entries[keys[0]]["consensus"] = nil
	cf.Entries[keys[1]]["consensus"] = [][]int{{0}, {1}, {2}, {7}}
	if raw, err = json.Marshal(cf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	s2, ts2 := newTestServer(t, server.Config{Store: st2})
	for _, a := range algos {
		out, _ := aggregateHash(t, ts2.URL, h, a)
		if out.ConsensusHit {
			t.Errorf("%s: served a dropped persisted consensus: %+v", a, out)
		}
		if out.Consensus.Len() != 4 || out.Consensus.Validate() != nil {
			t.Errorf("%s: consensus %v is not a ranking of the 4 elements", a, out.Consensus)
		}
	}
	if runs := s2.ConsensusStats().Runs; runs != int64(len(algos)) {
		t.Errorf("restarted server ran %d solves, want %d", runs, len(algos))
	}
	if resp, _ := doJSON(t, http.MethodGet, ts2.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz %d after the aggregates, want 200", resp.StatusCode)
	}
}
