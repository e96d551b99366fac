package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"rankagg"
	"rankagg/internal/server"
)

// TestConsensusCacheRepeatPost is the tentpole's acceptance check at the
// HTTP surface: a repeat POST with an identical (dataset, spec) pair is
// answered from the consensus cache — consensus_hit:true and exactly one
// solver run — while a spec differing in key material runs again.
func TestConsensusCacheRepeatPost(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})

	req := smallRequest("BioConsert")
	resp, data := postAggregate(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d %s", resp.StatusCode, data)
	}
	var first server.AggregateResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	if first.ConsensusHit || first.CacheHit {
		t.Error("first request reported warm state")
	}

	resp, data = postAggregate(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat POST: %d %s", resp.StatusCode, data)
	}
	var second server.AggregateResponse
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if !second.ConsensusHit || !second.CacheHit {
		t.Errorf("repeat POST not served from the consensus cache: %+v", second)
	}
	if second.Score != first.Score || !second.Consensus.Equal(first.Consensus) {
		t.Error("cached consensus differs from the computed one")
	}
	cs := s.ConsensusStats()
	if cs.Runs != 1 || cs.Hits != 1 || cs.Misses != 1 || cs.Entries != 1 {
		t.Errorf("consensus stats after repeat = %+v, want 1 run / 1 hit / 1 miss", cs)
	}

	// A different seed is a different deterministic run: consensus miss,
	// though the session (pair matrix) is shared.
	seeded := smallRequest("BioConsert")
	one := int64(1)
	seeded.Spec = &rankagg.RunSpec{Algorithm: "BioConsert", Seed: &one}
	resp, data = postAggregate(t, ts.URL, seeded)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seeded POST: %d %s", resp.StatusCode, data)
	}
	var third server.AggregateResponse
	if err := json.Unmarshal(data, &third); err != nil {
		t.Fatal(err)
	}
	if third.ConsensusHit {
		t.Error("different seed must not hit the consensus cache")
	}
	if !third.CacheHit {
		t.Error("session (matrix) should still be warm for the seeded run")
	}
	if cs := s.ConsensusStats(); cs.Runs != 2 {
		t.Errorf("solver runs = %d, want 2", cs.Runs)
	}
}

// TestRetiredAliasFieldsRejected pins the retirement of the top-level run
// fields: a body that carries "algorithm", "seed", "restarts" or
// "timeout_ms" at the top level answers 400 with a message naming the
// "spec" form, on both aggregate endpoints, also when a spec sits beside
// them; and the nested spec normalizes to one consensus key however it is
// spelled.
func TestRetiredAliasFieldsRejected(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	wire := smallRequest("BioConsert").DatasetWire

	legacy := map[string]any{"algorithm": "BioConsert", "seed": 7, "restarts": 3, "timeout_ms": 5000,
		"names": wire.Names, "rankings": wire.Rankings}
	created, _ := putDataset(t, ts.URL, wire)
	for _, retired := range []struct {
		url  string
		body any
	}{
		{ts.URL + "/v1/aggregate", legacy},
		{ts.URL + "/v1/datasets/" + created.DatasetHash + "/aggregate", map[string]any{"algorithm": "BioConsert"}},
	} {
		resp, data := doJSON(t, http.MethodPost, retired.url, retired.body)
		var e struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(data, &e) != nil || !strings.Contains(e.Error, `"spec"`) {
			t.Fatalf("POST %s with a top-level algorithm: %d %s, want 400 naming the \"spec\" form", retired.url, resp.StatusCode, data)
		}
	}

	seven := int64(7)
	nested := smallRequest("")
	nested.Spec = &rankagg.RunSpec{Algorithm: "BioConsert", Seed: &seven, Restarts: 3}
	resp, data := postAggregate(t, ts.URL, nested)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nested POST: %d %s", resp.StatusCode, data)
	}

	// A retired field beside a spec is refused, not ignored: the run it
	// asked for would differ from the one the spec alone describes.
	for field, value := range map[string]any{"algorithm": "BordaCount", "seed": 7, "restarts": 3, "timeout_ms": 5000} {
		spec := map[string]any{"algorithm": "BioConsert"}
		for _, mixed := range []struct {
			url  string
			body map[string]any
		}{
			{ts.URL + "/v1/aggregate", map[string]any{"spec": spec, field: value, "names": wire.Names, "rankings": wire.Rankings}},
			{ts.URL + "/v1/datasets/" + created.DatasetHash + "/aggregate", map[string]any{"spec": spec, field: value}},
		} {
			resp, data := doJSON(t, http.MethodPost, mixed.url, mixed.body)
			var e struct {
				Error string `json:"error"`
			}
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(data, &e) != nil || !strings.Contains(e.Error, `"spec"`) {
				t.Errorf("POST %s with a spec and a top-level %q: %d %s, want 400 naming the \"spec\" form", mixed.url, field, resp.StatusCode, data)
			}
		}
	}

	// The spec's own spelling canonicalizes.
	respelled := map[string]any{"spec": map[string]any{"algorithm": "bioconsert", "seed": 7, "restarts": 3},
		"names": wire.Names, "rankings": wire.Rankings}
	resp, data = postAggregate(t, ts.URL, respelled)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("respelled spec: %d %s", resp.StatusCode, data)
	}
	var again server.AggregateResponse
	decodeJSON(t, data, &again)
	if again.Algorithm != "BioConsert" || !again.ConsensusHit {
		t.Errorf("respelled spec: ran %q, consensus_hit=%v, want BioConsert from the consensus cache", again.Algorithm, again.ConsensusHit)
	}
}

// TestDatasetInfoEndpoint covers the new GET /v1/datasets/{hash}: cached
// sessions report their metadata and consensus-cache holdings; unknown
// hashes 404.
func TestDatasetInfoEndpoint(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	resp, data := postAggregate(t, ts.URL, smallRequest("BioConsert"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d %s", resp.StatusCode, data)
	}
	var agg server.AggregateResponse
	if err := json.Unmarshal(data, &agg); err != nil {
		t.Fatal(err)
	}

	getResp, err := http.Get(ts.URL + "/v1/datasets/" + agg.DatasetHash)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("GET info: %d %s", getResp.StatusCode, body)
	}
	var info server.DatasetInfoResponse
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.DatasetHash != agg.DatasetHash || info.N != 4 || info.M != 3 {
		t.Errorf("info = %+v, want the POSTed dataset's metadata", info)
	}
	if info.MatrixBuilds != 1 || info.MatrixBytes <= 0 || info.MatrixLayout == "" {
		t.Errorf("matrix metadata missing: %+v", info)
	}
	if info.CachedConsensus != 1 || info.WarmHint {
		t.Errorf("consensus holdings = %d/%v, want 1 entry and no hint", info.CachedConsensus, info.WarmHint)
	}

	getResp, err = http.Get(ts.URL + "/v1/datasets/no-such-hash")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown hash: %d %s, want 404", getResp.StatusCode, body)
	}
}

// TestPatchInvalidatesAndWarmStarts walks the dynamic-sessions flow the
// tentpole exists for: POST (consensus cached) → PATCH (entries of the
// old hash invalidated, best consensus planted as the new hash's warm
// hint) → POST of the mutated dataset (solver warm-starts, reports it in
// stats, and the warm-start counter moves).
func TestPatchInvalidatesAndWarmStarts(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})

	resp, data := postAggregate(t, ts.URL, smallRequest("BioConsert"))
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
	var patched server.PatchResponse
	if err := json.Unmarshal(data, &patched); err != nil {
		t.Fatal(err)
	}

	// The old hash's consensus entries are gone; the new hash carries a
	// pending warm hint.
	getResp, err := http.Get(ts.URL + "/v1/datasets/" + patched.DatasetHash)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(getResp.Body)
	getResp.Body.Close()
	var info server.DatasetInfoResponse
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("GET info: %v (%s)", err, body)
	}
	if info.CachedConsensus != 0 || !info.WarmHint {
		t.Errorf("post-PATCH holdings = %d/%v, want 0 entries and a warm hint", info.CachedConsensus, info.WarmHint)
	}
	if cs := s.ConsensusStats(); cs.Invalidations == 0 {
		t.Error("PATCH did not invalidate the old hash's consensus entries")
	}

	// Re-POST the mutated dataset: the solver consumes the hint.
	grown := smallRequest("BioConsert")
	grown.Rankings = append(grown.Rankings, extraRanking())
	resp, data = postAggregate(t, ts.URL, grown)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm POST: %d %s", resp.StatusCode, data)
	}
	var warm server.AggregateResponse
	if err := json.Unmarshal(data, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.DatasetHash != patched.DatasetHash {
		t.Fatalf("grown POST hash %s != PATCH hash %s", warm.DatasetHash, patched.DatasetHash)
	}
	if warm.ConsensusHit {
		t.Error("post-PATCH solve cannot be a consensus hit")
	}
	if !warm.Stats.WarmStart {
		t.Error("post-PATCH solve did not warm-start from the harvested consensus")
	}

	// The hint is consume-once and the warm result is now cached.
	metResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met, _ := io.ReadAll(metResp.Body)
	metResp.Body.Close()
	if !strings.Contains(string(met), "rankagg_warm_starts_total 1") {
		t.Error("metrics missing rankagg_warm_starts_total 1")
	}
	if !strings.Contains(string(met), "rankagg_consensus_invalidations_total 1") {
		t.Error("metrics missing rankagg_consensus_invalidations_total 1")
	}
	resp, data = postAggregate(t, ts.URL, grown)
	var again server.AggregateResponse
	if err := json.Unmarshal(data, &again); err != nil {
		t.Fatal(err)
	}
	if !again.ConsensusHit || again.Score != warm.Score {
		t.Errorf("repeat of the warm solve should hit its cached result: %+v", again)
	}
}
