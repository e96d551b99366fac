package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"rankagg/internal/gen"
	"rankagg/internal/rankings"
	"rankagg/internal/server"
	"rankagg/internal/store"
)

// BenchmarkPutDataset times one PUT /v1/datasets served straight through
// the handler, at the PUT shapes of both perfbench workloads: approx-wire's
// 100 top-100 lists over n=5000 into a store (snapshot fsync included),
// and exact-mix's 30 Markov rankings over n=200 on an ephemeral server,
// which builds the pair matrix. Each iteration creates the dataset; a
// DELETE outside the timer removes it again.
func BenchmarkPutDataset(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lists := make([][]int, 100)
	for i := range lists {
		lists[i] = rng.Perm(5000)[:100]
	}
	markov := gen.MarkovDataset(rng, rankings.FromPermutation(rng.Perm(200)), 200, 30, 200)
	for _, c := range []struct {
		name  string
		req   server.DatasetPutRequest
		store bool
	}{
		{"approx-wire", server.DatasetPutRequest{DatasetWire: rankings.DatasetWire{N: 5000}, TopLists: lists}, true},
		{"exact-mix", server.DatasetPutRequest{DatasetWire: rankings.DatasetWire{N: markov.N, Rankings: markov.Rankings}}, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			body, err := json.Marshal(c.req)
			if err != nil {
				b.Fatal(err)
			}
			cfg := server.Config{Log: log.New(io.Discard, "", 0)}
			if c.store {
				st, err := store.Open(store.Config{Dir: b.TempDir()})
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				cfg.Store = st
			}
			h := server.New(cfg).Handler()
			serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
				return w
			}
			w := serve(http.MethodPut, "/v1/datasets", body)
			var created server.DatasetCreateResponse
			if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil || w.Code != http.StatusCreated {
				b.Fatalf("PUT: %d %s", w.Code, w.Body)
			}
			remove := func() {
				if w := serve(http.MethodDelete, "/v1/datasets/"+created.DatasetHash, nil); w.Code != http.StatusOK {
					b.Fatalf("DELETE: %d %s", w.Code, w.Body)
				}
			}
			remove()
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if w := serve(http.MethodPut, "/v1/datasets", body); w.Code != http.StatusCreated {
					b.Fatalf("PUT: %d %s", w.Code, w.Body)
				}
				b.StopTimer()
				remove()
				b.StartTimer()
			}
		})
	}
}
