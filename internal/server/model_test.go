package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"rankagg"
	"rankagg/internal/rankings"
	"rankagg/internal/server"
	"rankagg/internal/store"
)

// The differential model test runs seeded random op sequences against the
// real server and checks every answer against a reference that is nothing
// but a map from dataset hash to a plain rankings.Dataset, updated by the
// delta rule written out below (modelDelta). Half the seeds run on a store
// with a replay budget of 1 or 2, so PATCHes compact the log, and close and
// reopen it mid-sequence; the other half are ephemeral with a one- or
// two-entry session cache, so datasets get evicted. Two more seeds run on a
// store with a -max-elements budget that half their complete datasets
// overflow, so those are served matrix-free and PATCHed on that tier.

// modelEntry is one dataset the model knows. A durable entry lives in the
// store and must always answer. Any other entry is a cache entry that an
// eviction or a restart may drop: when the server answers 404 for it, the
// model drops it too.
type modelEntry struct {
	d       *rankings.Dataset
	names   []string // the element names the store holds; nil for none
	durable bool
}

type modelRun struct {
	t      *testing.T
	rng    *rand.Rand
	seed   int64
	step   int
	op     string
	dir    string // store directory; "" for an ephemeral server
	budget int    // the store's replay budget
	// big draws half the complete datasets over the matrix byte budget of
	// cfg.MaxElements (routeMaxElements).
	big   bool
	cfg   server.Config
	st    *store.Store
	srv   *server.Server
	ts    *httptest.Server
	model map[string]*modelEntry
}

// deterministicAlgos answer the same consensus however the server reached
// its session (cache hit, delta, replay, consensus cache); the others are
// checked by score only.
var deterministicAlgos = map[string]bool{
	"BordaCount": true, "CopelandMethod": true, "lehmer": true, "avgrank": true, "scores": true,
}

// modelAlgos are the algorithms the aggregate ops ask for: four exact and
// the three matrix-free ones.
var modelAlgos = []string{"BordaCount", "CopelandMethod", "BioConsert", "KwikSortMin", "lehmer", "avgrank", "scores"}

func TestServerMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			mr := &modelRun{
				t:     t,
				rng:   rand.New(rand.NewSource(seed)),
				seed:  seed,
				model: make(map[string]*modelEntry),
				cfg:   server.Config{Log: log.New(io.Discard, "", 0)},
			}
			switch {
			case seed > 8:
				mr.dir = t.TempDir()
				mr.budget = 1 + int(seed%2)
				mr.big = true
				mr.cfg.MaxElements = routeMaxElements
			case seed%2 == 0:
				mr.dir = t.TempDir()
				mr.budget = 1 + int(seed/2)%2
			default:
				mr.cfg.CacheEntries = 1 + int(seed/2)%2
			}
			mr.start()
			defer mr.stop()
			for mr.step = 0; mr.step < 160; mr.step++ {
				mr.randomOp()
			}
		})
	}
}

func (mr *modelRun) start() {
	mr.cfg.Store = nil
	if mr.dir != "" {
		st, err := store.Open(store.Config{Dir: mr.dir, ReplayBudget: mr.budget})
		if err != nil {
			mr.fatalf("store.Open: %v", err)
		}
		mr.st = st
		mr.cfg.Store = st
	}
	mr.srv = server.New(mr.cfg)
	mr.ts = httptest.NewServer(mr.srv.Handler())
}

func (mr *modelRun) stop() {
	mr.ts.Close()
	if mr.st != nil {
		mr.st.Close()
		mr.st = nil
	}
}

// restart closes the server and its store and opens both again on the same
// directory: durable datasets must survive, cache-only ones are gone.
func (mr *modelRun) restart() {
	mr.stop()
	for h, e := range mr.model {
		if !e.durable {
			delete(mr.model, h)
		}
	}
	mr.start()
}

func (mr *modelRun) fatalf(format string, args ...any) {
	mr.t.Helper()
	mr.t.Fatalf("seed %d step %d (%s): %s", mr.seed, mr.step, mr.op, fmt.Sprintf(format, args...))
}

func (mr *modelRun) randomOp() {
	if len(mr.model) == 0 {
		mr.putOp(mr.rng.Intn(3) == 0)
		return
	}
	switch k := mr.rng.Intn(100); {
	case k < 10:
		mr.putOp(false)
	case k < 16:
		mr.putOp(true)
	case k < 19:
		mr.reputOp()
	case k < 39:
		mr.patchOp()
	case k < 43:
		mr.badPatchOp()
	case k < 46:
		mr.retiredWireOp()
	case k < 50:
		mr.deleteOp()
	case k < 58:
		mr.infoOp()
	case k < 80:
		mr.aggregateByHashOp()
	case k < 94:
		mr.aggregateInlineOp()
	case k < 97:
		mr.op = "CompactNow"
		mr.srv.CompactNow()
	case mr.dir == "":
		mr.infoOp()
	default:
		mr.op = "restart"
		mr.restart()
	}
}

// pick returns a random hash the model holds.
func (mr *modelRun) pick() (string, *modelEntry) {
	// Sorted, so that a seed replays the same sequence.
	hashes := slices.Sorted(maps.Keys(mr.model))
	h := hashes[mr.rng.Intn(len(hashes))]
	return h, mr.model[h]
}

// randomTied is a random bucket order of all n elements, buckets of one to
// three elements.
func randomTied(rng *rand.Rand, n int) *rankings.Ranking {
	perm := rng.Perm(n)
	r := &rankings.Ranking{}
	for i := 0; i < n; {
		k := min(1+rng.Intn(3), n-i)
		r.Buckets = append(r.Buckets, append([]int(nil), perm[i:i+k]...))
		i += k
	}
	return r
}

// randomList is a top-k list: k distinct elements of n, best first.
func randomList(rng *rand.Rand, n int) *rankings.Ranking {
	return rankings.FromPermutation(rng.Perm(n)[:2+rng.Intn(3)])
}

// addFor draws a ranking the dataset accepts as an add: a full bucket order
// on a complete dataset, a top-k list on a toplists one.
func (mr *modelRun) addFor(d *rankings.Dataset) *rankings.Ranking {
	if d.Complete() {
		return randomTied(mr.rng, d.N)
	}
	return randomList(mr.rng, d.N)
}

// shuffled is r with every bucket's members permuted: the same bucket
// order, so the server must still match it as a removal.
func (mr *modelRun) shuffled(r *rankings.Ranking) *rankings.Ranking {
	out := r.Clone()
	for _, b := range out.Buckets {
		mr.rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	}
	return out
}

// modelDelta is the reference delta rule: every add must fit the universe,
// and a complete dataset takes only complete adds; each removal matches one
// not yet matched ranking by bucket-order equality; removals go, then adds
// append. It returns the next dataset, or the status the server must answer.
func modelDelta(d *rankings.Dataset, add, remove []*rankings.Ranking) (*rankings.Dataset, int) {
	for _, r := range add {
		if r.Len() == 0 || r.MaxElement() >= d.N || (d.Complete() && r.Len() != d.N) {
			return nil, http.StatusBadRequest
		}
	}
	used := make([]bool, len(d.Rankings))
	for _, r := range remove {
		found := false
		for i, have := range d.Rankings {
			if !used[i] && have.Equal(r) {
				used[i], found = true, true
				break
			}
		}
		if !found {
			return nil, http.StatusConflict
		}
	}
	var next []*rankings.Ranking
	for i, r := range d.Rankings {
		if !used[i] {
			next = append(next, r)
		}
	}
	next = append(next, add...)
	if len(next) == 0 {
		return nil, http.StatusConflict
	}
	return &rankings.Dataset{N: d.N, Rankings: next}, http.StatusOK
}

func (mr *modelRun) do(method, path string, body any) (int, []byte, http.Header) {
	mr.t.Helper()
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			mr.fatalf("marshal: %v", err)
		}
	}
	req, err := http.NewRequest(method, mr.ts.URL+path, bytes.NewReader(raw))
	if err != nil {
		mr.fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		mr.fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		mr.fatalf("reading %s %s: %v", method, path, err)
	}
	return resp.StatusCode, data, resp.Header
}

func (mr *modelRun) decode(data []byte, v any) {
	mr.t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		mr.fatalf("decoding %s: %v", data, err)
	}
}

// gone handles a 404 for a dataset the model holds: a cache-only dataset
// may have been evicted, a durable one may not.
func (mr *modelRun) gone(hash string, code int, data []byte) bool {
	mr.t.Helper()
	if code != http.StatusNotFound {
		return false
	}
	if mr.model[hash].durable {
		mr.fatalf("durable dataset %s answered 404: %s", hash, data)
	}
	delete(mr.model, hash)
	return true
}

// remember records what the server now holds under hash. The store keeps
// the names a dataset was first persisted with.
func (mr *modelRun) remember(hash string, d *rankings.Dataset, names []string, durable bool) {
	if e, ok := mr.model[hash]; ok {
		if durable && !e.durable {
			e.names = names
		}
		e.durable = e.durable || durable
		return
	}
	if !durable {
		names = nil
	}
	mr.model[hash] = &modelEntry{d: d, names: names, durable: durable}
}

// randomNames is a name for each of n elements, or nil for none.
func (mr *modelRun) randomNames(n int) []string {
	if mr.rng.Intn(2) == 0 {
		return nil
	}
	names := make([]string, n)
	for i, p := range mr.rng.Perm(n) {
		names[i] = fmt.Sprintf("e%d", p)
	}
	return names
}

// toLists is a toplists dataset's wire form: each ranking's singleton
// buckets, best first.
func toLists(d *rankings.Dataset) [][]int {
	lists := make([][]int, len(d.Rankings))
	for i, r := range d.Rankings {
		for _, b := range r.Buckets {
			lists[i] = append(lists[i], b...)
		}
	}
	return lists
}

func (mr *modelRun) putOp(topLists bool) {
	var d *rankings.Dataset
	if topLists {
		n, m := 8+mr.rng.Intn(5), 2+mr.rng.Intn(4)
		d = &rankings.Dataset{N: n}
		for i := 0; i < m; i++ {
			d.Rankings = append(d.Rankings, randomList(mr.rng, n))
		}
	} else {
		n, m := 4+mr.rng.Intn(4), 2+mr.rng.Intn(4)
		if mr.big {
			// Matrices of 2n² bytes: up to 7200 below the 27648-byte
			// budget, 27848 and up above it.
			n = 40 + mr.rng.Intn(20)
			if mr.rng.Intn(2) == 0 {
				n = 118 + mr.rng.Intn(20)
			}
		}
		d = &rankings.Dataset{N: n}
		for i := 0; i < m; i++ {
			d.Rankings = append(d.Rankings, randomTied(mr.rng, n))
		}
	}
	mr.put(d, mr.randomNames(d.N))
}

// reputOp PUTs a dataset the model already holds: idempotent by content.
func (mr *modelRun) reputOp() {
	_, e := mr.pick()
	mr.put(e.d, e.names)
}

func (mr *modelRun) put(d *rankings.Dataset, names []string) {
	mr.op = "PUT"
	hash := d.Hash()
	var body any = server.DatasetPutRequest{DatasetWire: rankings.DatasetWire{N: d.N, Names: names, Rankings: d.Rankings}}
	if !d.Complete() {
		mr.op = "PUT toplists"
		body = map[string]any{"n": d.N, "names": names, "toplists": toLists(d)}
	}
	code, data, _ := mr.do(http.MethodPut, "/v1/datasets", body)
	var resp server.DatasetCreateResponse
	if code == http.StatusOK || code == http.StatusCreated {
		mr.decode(data, &resp)
	}
	// A store creates what it does not hold; an ephemeral server creates
	// what it does not cache, and an entry the model holds may have been
	// evicted.
	e, known := mr.model[hash]
	durable := known && e.durable
	switch {
	case code != http.StatusOK && code != http.StatusCreated:
		mr.fatalf("status %d: %s", code, data)
	case durable && code != http.StatusOK:
		mr.fatalf("re-PUT of stored %s answered %d, want 200", hash, code)
	case !durable && (!known || mr.dir != "") && code != http.StatusCreated:
		mr.fatalf("PUT of a dataset the server does not hold answered %d, want 201: %s", code, data)
	}
	if resp.DatasetHash != hash || resp.N != d.N || resp.M != d.M() || resp.Created != (code == http.StatusCreated) {
		mr.fatalf("PUT answered %+v, model hash %s n=%d m=%d", resp, hash, d.N, d.M())
	}
	if resp.Persisted != (mr.dir != "") {
		mr.fatalf("PUT persisted = %v on a server with store = %v", resp.Persisted, mr.dir != "")
	}
	mr.remember(hash, d, names, mr.dir != "")
}

func (mr *modelRun) patchOp() {
	hash, e := mr.pick()
	d := e.d
	var add, remove []*rankings.Ranking
	if mr.rng.Intn(3) > 0 {
		remove = append(remove, mr.shuffled(d.Rankings[mr.rng.Intn(len(d.Rankings))]))
	}
	for i := mr.rng.Intn(3); i > 0; i-- {
		add = append(add, mr.addFor(d))
	}
	if len(add) == 0 && (len(remove) == 0 || len(d.Rankings) == 1) {
		add = append(add, mr.addFor(d))
	}
	mr.op = "PATCH"
	mr.patch(hash, add, remove)
}

// badPatchOp sends a delta the server must reject, leaving the dataset as
// it was: a removal of a ranking the dataset does not hold (409), a delta
// that removes every ranking (409), or a partial add on a complete dataset
// (400).
func (mr *modelRun) badPatchOp() {
	hash, e := mr.pick()
	d := e.d
	switch k := mr.rng.Intn(3); {
	case k == 0:
		mr.op = "PATCH missing remove"
		missing := mr.addFor(d)
		for _, have := range d.Rankings {
			if have.Equal(missing) {
				return // drawn a ranking the dataset holds; skip the op
			}
		}
		mr.patch(hash, nil, []*rankings.Ranking{missing})
	case k == 1:
		mr.op = "PATCH emptying"
		var all []*rankings.Ranking
		for _, r := range d.Rankings {
			all = append(all, mr.shuffled(r))
		}
		mr.patch(hash, nil, all)
	case d.Complete():
		mr.op = "PATCH partial add"
		mr.patch(hash, []*rankings.Ranking{randomList(mr.rng, d.N)}, nil)
	default:
		mr.op = "PATCH out-of-universe add"
		mr.patch(hash, []*rankings.Ranking{rankings.FromPermutation([]int{0, d.N})}, nil)
	}
}

func (mr *modelRun) patch(hash string, add, remove []*rankings.Ranking) {
	e := mr.model[hash]
	var ops []server.PatchOp
	for _, r := range remove {
		ops = append(ops, server.PatchOp{Remove: r})
	}
	for _, r := range add {
		ops = append(ops, server.PatchOp{Add: r})
	}
	if mr.rng.Intn(4) > 0 {
		// Interleaved at random: removals still apply before additions, and
		// additions append in the order the ops list them.
		mr.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		add = nil
		for _, op := range ops {
			if op.Add != nil {
				add = append(add, op.Add)
			}
		}
	}
	body := server.PatchRequest{Ops: ops}
	next, want := modelDelta(e.d, add, remove)
	code, data, hdr := mr.do(http.MethodPatch, "/v1/datasets/"+hash, body)
	if mr.gone(hash, code, data) {
		return
	}
	if code != want {
		mr.fatalf("PATCH %s answered %d, model wants %d: %s", hash, code, want, data)
	}
	if code != http.StatusOK {
		return
	}
	var resp server.PatchResponse
	mr.decode(data, &resp)
	newHash := next.Hash()
	if resp.BaseHash != hash || resp.DatasetHash != newHash || resp.N != next.N || resp.M != next.M() ||
		resp.Added != len(add) || resp.Removed != len(remove) || !resp.DeltaApplied {
		mr.fatalf("PATCH answered %s, model hash %s n=%d m=%d", data, newHash, next.N, next.M())
	}
	if resp.Persisted != e.durable {
		mr.fatalf("PATCH persisted = %v, model durable = %v", resp.Persisted, e.durable)
	}
	if loc := hdr.Get("Location"); loc != "/v1/datasets/"+newHash {
		mr.fatalf("PATCH Location %q, want the new hash %s", loc, newHash)
	}
	delete(mr.model, hash)
	mr.remember(newHash, next, e.names, e.durable)
}

// retiredWireOp sends a body in one of the retired wire forms, which the
// server must answer with 400 and nothing changed: an aggregate whose run
// spec sits in top-level "algorithm"/"seed"/"restarts"/"timeout_ms" fields
// instead of "spec", or a PATCH whose delta sits in flat "add"/"remove"
// lists instead of "ops". Half of them also carry the current form beside
// a retired field, which must not make the field ignored.
func (mr *modelRun) retiredWireOp() {
	hash, e := mr.pick()
	alg := modelAlgos[mr.rng.Intn(len(modelAlgos))]
	mixed := mr.rng.Intn(2) == 0
	var method, path string
	var body map[string]any
	switch form := mr.rng.Intn(3); form {
	case 0, 1:
		body = map[string]any{"algorithm": alg, "seed": 1, "restarts": 2, "timeout_ms": 5000}
		if mixed {
			keys := slices.Sorted(maps.Keys(body))
			key := keys[mr.rng.Intn(len(keys))]
			body = map[string]any{"spec": map[string]any{"algorithm": alg}, key: body[key]}
		}
		method, path = http.MethodPost, "/v1/datasets/"+hash+"/aggregate"
		mr.op = fmt.Sprintf("retired aggregate by hash %s (mixed %v)", alg, mixed)
		if form == 0 {
			break
		}
		path = "/v1/aggregate"
		mr.op = fmt.Sprintf("retired aggregate inline %s (mixed %v)", alg, mixed)
		body["n"] = e.d.N
		if e.d.Complete() {
			body["rankings"] = e.d.Rankings
		} else {
			body["toplists"] = toLists(e.d)
		}
	default:
		mr.op = fmt.Sprintf("retired PATCH (mixed %v)", mixed)
		method, path = http.MethodPatch, "/v1/datasets/"+hash
		body = map[string]any{"add": []*rankings.Ranking{mr.addFor(e.d)}}
		if mixed {
			body = map[string]any{"ops": []server.PatchOp{{Add: mr.addFor(e.d)}}, "remove": []*rankings.Ranking{}}
		}
	}
	code, data, _ := mr.do(method, path, body)
	if code != http.StatusBadRequest {
		mr.fatalf("%s %s in a retired wire form answered %d, want 400: %s", method, path, code, data)
	}
	var resp struct {
		Error string `json:"error"`
	}
	mr.decode(data, &resp)
	if !strings.Contains(resp.Error, `"spec"`) && !strings.Contains(resp.Error, `"ops"`) {
		mr.fatalf("400 for a retired wire form does not name the \"spec\" or \"ops\" form: %s", data)
	}
}

func (mr *modelRun) deleteOp() {
	mr.op = "DELETE"
	hash, e := mr.pick()
	code, data, _ := mr.do(http.MethodDelete, "/v1/datasets/"+hash, nil)
	if mr.gone(hash, code, data) {
		return
	}
	if code != http.StatusOK {
		mr.fatalf("DELETE %s answered %d: %s", hash, code, data)
	}
	var resp struct {
		Persisted bool `json:"persisted"`
	}
	mr.decode(data, &resp)
	if resp.Persisted != e.durable {
		mr.fatalf("DELETE persisted = %v, model durable = %v", resp.Persisted, e.durable)
	}
	delete(mr.model, hash)
	if code, data, _ := mr.do(http.MethodGet, "/v1/datasets/"+hash, nil); code != http.StatusNotFound {
		mr.fatalf("GET after DELETE of %s answered %d: %s", hash, code, data)
	}
}

func (mr *modelRun) infoOp() {
	mr.op = "GET"
	hash, e := mr.pick()
	code, data, _ := mr.do(http.MethodGet, "/v1/datasets/"+hash, nil)
	if mr.gone(hash, code, data) {
		return
	}
	if code != http.StatusOK {
		mr.fatalf("GET %s answered %d: %s", hash, code, data)
	}
	var resp server.DatasetInfoResponse
	mr.decode(data, &resp)
	if resp.DatasetHash != hash || resp.N != e.d.N || resp.M != e.d.M() || resp.Persisted != e.durable {
		mr.fatalf("GET answered %s, model n=%d m=%d durable=%v", data, e.d.N, e.d.M(), e.durable)
	}
}

func (mr *modelRun) aggregateByHashOp() {
	hash, e := mr.pick()
	alg := modelAlgos[mr.rng.Intn(len(modelAlgos))]
	mr.op = "aggregate by hash " + alg
	code, data, hdr := mr.do(http.MethodPost, "/v1/datasets/"+hash+"/aggregate",
		map[string]any{"spec": map[string]any{"algorithm": alg}})
	if mr.gone(hash, code, data) {
		return
	}
	var names []string
	if e.durable {
		names = e.names
	}
	mr.checkAggregate(hash, e.d, alg, names, code, data, hdr)
}

// aggregateInlineOp POSTs a dataset to /v1/aggregate: a model dataset's
// content, or a new one the server then holds as a cache entry.
func (mr *modelRun) aggregateInlineOp() {
	var d *rankings.Dataset
	if mr.rng.Intn(3) == 0 {
		n := 4 + mr.rng.Intn(4)
		d = &rankings.Dataset{N: n}
		for i := 1 + mr.rng.Intn(4); i > 0; i-- {
			d.Rankings = append(d.Rankings, randomTied(mr.rng, n))
		}
	} else {
		_, e := mr.pick()
		d = e.d
	}
	alg := modelAlgos[mr.rng.Intn(len(modelAlgos))]
	mr.op = "aggregate inline " + alg
	req := map[string]any{"spec": map[string]any{"algorithm": alg}, "n": d.N}
	if d.Complete() {
		req["rankings"] = d.Rankings
	} else {
		req["toplists"] = toLists(d)
	}
	code, data, hdr := mr.do(http.MethodPost, "/v1/aggregate", req)
	hash := d.Hash()
	mr.checkAggregate(hash, d, alg, nil, code, data, hdr)
	mr.remember(hash, d, nil, false)
}

// checkAggregate checks one aggregate answer against the model's dataset.
// An exact algorithm asked of an incomplete dataset, or of one whose pair
// matrix the byte budget cannot hold, is served matrix-free, under the
// tier's default algorithm for that dataset. names are the element names
// the answer must give its consensus in; nil: it gives none.
func (mr *modelRun) checkAggregate(hash string, d *rankings.Dataset, alg string, names []string, code int, data []byte, hdr http.Header) {
	mr.t.Helper()
	budget := int64(12 * mr.cfg.MaxElements * mr.cfg.MaxElements)
	overBudget := budget > 0 && rankagg.PredictMatrixBytes(rankagg.MatrixAuto, d.N, d.M(), d.Complete()) > budget
	wantApprox := rankagg.MatrixFree(alg) || !d.Complete() || overBudget
	if wantApprox && budget > 0 && rankagg.PredictApproxBytes(d.N) > budget {
		if code != http.StatusRequestEntityTooLarge {
			mr.fatalf("aggregate of %s, whose matrix-free state is over budget, answered %d: %s", hash, code, data)
		}
		return
	}
	if code != http.StatusOK {
		mr.fatalf("aggregate of %s answered %d: %s", hash, code, data)
	}
	var resp server.AggregateResponse
	mr.decode(data, &resp)
	wantAlg := alg
	if wantApprox && !rankagg.MatrixFree(alg) {
		wantAlg = rankagg.ApproxDefault(d)
	}
	tier := "exact"
	if wantApprox {
		tier = "approx"
	}
	if resp.DatasetHash != hash || resp.N != d.N || resp.M != d.M() || resp.Algorithm != wantAlg ||
		resp.Approx != wantApprox || hdr.Get("X-Rankagg-Tier") != tier {
		mr.fatalf("aggregate answered hash %s n=%d m=%d algorithm %s approx=%v tier %q; model hash %s n=%d m=%d, want %s on the %s tier",
			resp.DatasetHash, resp.N, resp.M, resp.Algorithm, resp.Approx, hdr.Get("X-Rankagg-Tier"),
			hash, d.N, d.M(), wantAlg, tier)
	}
	if resp.Consensus == nil || resp.Consensus.Len() != d.N || resp.Consensus.Validate() != nil {
		mr.fatalf("consensus %v is not a bucket order of the %d elements", resp.Consensus, d.N)
	}
	if got := rankagg.Score(resp.Consensus, d); resp.Score != got {
		mr.fatalf("score %d, rankagg.Score on the model's dataset %d", resp.Score, got)
	}
	var wantNames [][]string
	if names != nil {
		u := rankings.NewUniverse()
		for _, nm := range names {
			u.ID(nm)
		}
		wantNames = rankings.BucketNames(resp.Consensus, u)
	}
	if !slices.EqualFunc(resp.ConsensusNames, wantNames, slices.Equal) {
		mr.fatalf("consensus_names %v, want %v for consensus %v", resp.ConsensusNames, wantNames, resp.Consensus)
	}
	if !deterministicAlgos[wantAlg] {
		return
	}
	var fresh *rankings.Ranking
	if wantApprox {
		res, err := rankagg.RunMatrixFree(context.Background(), wantAlg, d)
		if err != nil {
			mr.fatalf("fresh %s: %v", wantAlg, err)
		}
		fresh = res.Consensus
	} else {
		var err error
		if fresh, err = rankagg.Aggregate(wantAlg, d); err != nil {
			mr.fatalf("fresh %s: %v", wantAlg, err)
		}
	}
	if !resp.Consensus.Equal(fresh) {
		mr.fatalf("%s consensus %v, a fresh run on the model's dataset gives %v", wantAlg, resp.Consensus, fresh)
	}
}
