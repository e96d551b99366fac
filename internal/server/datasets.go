package server

// The dataset-resource surface: datasets as first-class REST resources
// identified by content hash, rather than side effects of aggregation.
// PUT creates by content (idempotent — the hash IS the identity), GET
// lists what the store and the cache hold, DELETE evicts and tombstones,
// and POST /v1/datasets/{hash}/aggregate is the canonical run endpoint
// (POST /v1/aggregate stays as the inline-dataset compatibility alias).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"

	"rankagg"
	"rankagg/internal/rankings"
)

// DatasetCreateResponse is the PUT /v1/datasets success body (201 when the
// dataset was created, 200 when it already existed — creation is
// idempotent by content hash).
type DatasetCreateResponse struct {
	DatasetHash string `json:"dataset_hash"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	Created     bool   `json:"created"`
	// Persisted reports the dataset is durable (the server runs with
	// -data-dir); without a store, PUT builds an ordinary cache entry that
	// lives and dies with the LRU.
	Persisted bool `json:"persisted"`
}

// DatasetPutRequest is the PUT /v1/datasets body: the rankings wire form
// (n/names/rankings), or "toplists" — one best-first element-ID list per
// voter, the approximation tier's compact shape. A toplists dataset
// decodes incomplete and is served exclusively by that tier; PATCHing it
// later admits partial adds (more top-k lists).
type DatasetPutRequest struct {
	rankings.DatasetWire
	TopLists [][]int `json:"toplists,omitempty"`
}

// handlePutDatasets creates a dataset by content: the handle is its
// content hash. With a store the snapshot is fsync'd before the response
// and no matrix is built — persistence is cheap, the O(m·n²) build is
// deferred to the first aggregation. Without a store the dataset becomes a
// cache entry: a matrix-tier session with an eagerly built matrix for
// complete datasets (it must hold its own weight against the budget), an
// approx-tier session for incomplete ones (there is no matrix to build).
func (s *Server) handlePutDatasets(w http.ResponseWriter, r *http.Request) {
	var wire DatasetPutRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(body).Decode(&wire); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return
	}
	var (
		d   *rankings.Dataset
		err error
	)
	if len(wire.TopLists) > 0 {
		if len(wire.Rankings) > 0 {
			s.writeError(w, http.StatusBadRequest, "supply \"rankings\" or \"toplists\", not both")
			return
		}
		tw := rankings.TopListsWire{N: wire.N, Names: wire.Names, TopLists: wire.TopLists}
		d, _, err = tw.Decode()
	} else {
		d, _, err = wire.DatasetWire.Decode()
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// An incomplete dataset is the approximation tier's alone; its O(n)
	// state must fit the budget before the store or the cache hashes it.
	if !d.Complete() && !s.admitApprox(w, d) {
		return
	}
	if s.store != nil {
		hash, created, err := s.store.Create(d, wire.Names)
		if err != nil {
			s.log.Printf("create dataset: %v", err)
			s.writeError(w, http.StatusInternalServerError, "persisting the dataset failed")
			return
		}
		code := http.StatusOK
		if created {
			code = http.StatusCreated
		}
		s.writeJSON(w, code, DatasetCreateResponse{
			DatasetHash: hash, N: d.N, M: d.M(), Created: created, Persisted: true,
		})
		return
	}
	// Ephemeral create of an incomplete dataset: only the approx tier can
	// hold it — its delta-maintainable session is the cache entry, weighed
	// by its O(n + Σ L_i) state, admitted above instead of by the matrix
	// check. Each ephemeral branch builds its session first (the
	// constructor validates the dataset) and keys the entry by the
	// session's own hash, which the session then keeps: the first by-hash
	// aggregate finds it instead of hashing the dataset again.
	if !d.Complete() {
		sess, err := rankagg.NewApproxSession(d)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		hash := sess.Hash()
		_, hit, err := s.approx.GetOrBuild(hash, func() (*rankagg.ApproxSession, error) {
			return sess, nil
		})
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		code := http.StatusOK
		if !hit {
			code = http.StatusCreated
		}
		s.writeJSON(w, code, DatasetCreateResponse{
			DatasetHash: hash, N: d.N, M: d.M(), Created: !hit, Persisted: false,
		})
		return
	}
	// Ephemeral create: the matrix is built now, so it must pass the same
	// admission the equivalent POST would.
	if s.budget > 0 {
		if need := rankagg.PredictMatrixBytes(s.matrixMode, d.N, d.M(), d.Complete()); need > s.budget {
			s.metrics.rejectedMatrix.Add(1)
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("dataset has %d elements and its %s pair matrix would need %d bytes; the server cap is %d bytes (-max-elements %d)",
					d.N, s.matrixMode, need, s.budget, s.maxElements))
			return
		}
	}
	sess, err := rankagg.NewSession(d, rankagg.WithMatrixMode(s.matrixMode))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	hash := sess.Hash()
	_, hit, err := s.cache.GetOrBuild(hash, func() (*rankagg.Session, error) {
		sess.Pairs()
		s.metrics.matrixBytes.Store(sess.MatrixBytes())
		return sess, nil
	})
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	code := http.StatusOK
	if !hit {
		code = http.StatusCreated
	}
	s.writeJSON(w, code, DatasetCreateResponse{
		DatasetHash: hash, N: d.N, M: d.M(), Created: !hit, Persisted: false,
	})
}

// DatasetListEntry is one row of the GET /v1/datasets listing.
type DatasetListEntry struct {
	DatasetHash string `json:"dataset_hash"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	Version     uint64 `json:"version"`
	Persisted   bool   `json:"persisted"`
	Cached      bool   `json:"cached"`
	// Approx reports the cached entry is an approximation-tier session
	// (incremental aggregation state, no pair matrix).
	Approx bool `json:"approx,omitempty"`
	// LogRecords is a persisted dataset's pending delta-log length. Bytes
	// is the dataset's footprint: on-disk bytes (snapshot + log) for
	// persisted datasets, cached matrix or approx-state bytes for
	// cache-only ones.
	LogRecords int   `json:"log_records,omitempty"`
	Bytes      int64 `json:"bytes"`
}

// handleListDatasets lists every dataset the server can aggregate by hash:
// the store's persisted datasets merged with the cache-only entries, in
// hash order.
func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	byHash := make(map[string]*DatasetListEntry)
	if s.store != nil {
		for _, info := range s.store.List() {
			byHash[info.Hash] = &DatasetListEntry{
				DatasetHash: info.Hash,
				N:           info.N,
				M:           info.M,
				Version:     info.Version,
				Persisted:   true,
				LogRecords:  info.LogRecords,
				Bytes:       info.Bytes,
			}
		}
	}
	for _, key := range s.cache.Keys() {
		if e, ok := byHash[key]; ok {
			e.Cached = true
			continue
		}
		sess, ok := s.cache.Peek(key)
		if !ok {
			continue // evicted between Keys and Peek
		}
		d := sess.Dataset()
		byHash[key] = &DatasetListEntry{
			DatasetHash: key,
			N:           d.N,
			M:           d.M(),
			Version:     sess.Version(),
			Cached:      true,
			Bytes:       sess.MatrixBytes(),
		}
	}
	for _, key := range s.approx.Keys() {
		if e, ok := byHash[key]; ok {
			e.Cached = true
			e.Approx = true
			continue
		}
		sess, ok := s.approx.Peek(key)
		if !ok {
			continue // evicted between Keys and Peek
		}
		d := sess.Dataset()
		byHash[key] = &DatasetListEntry{
			DatasetHash: key,
			N:           d.N,
			M:           d.M(),
			Version:     sess.Version(),
			Cached:      true,
			Approx:      true,
			Bytes:       sess.StateBytes(),
		}
	}
	out := make([]DatasetListEntry, 0, len(byHash))
	for _, e := range byHash {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DatasetHash < out[j].DatasetHash })
	s.writeJSON(w, http.StatusOK, map[string]any{"datasets": out, "total": len(out)})
}

// handleDeleteDataset removes the dataset at the path hash everywhere it
// lives: the store tombstones its delta log (fsync'd — a crash mid-removal
// finishes the cleanup on restart) and drops the directory, the cache
// evicts the session, and the consensus cache discards its entries and any
// pending warm hint. 404 when nothing held it.
func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	var persisted bool
	if s.store != nil {
		deleted, err := s.store.Delete(hash)
		if err != nil {
			// The tombstone is durable even when the directory removal
			// failed; the next restart finishes the job.
			s.log.Printf("delete dataset %s: %v", hash, err)
		}
		persisted = deleted
	}
	cached := s.cache.Remove(hash)
	if s.approx.Remove(hash) {
		cached = true
	}
	s.consensus.InvalidateDataset(hash)
	if !persisted && !cached {
		s.writeError(w, http.StatusNotFound,
			fmt.Sprintf("dataset %s is neither cached nor persisted", hash))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"dataset_hash": hash, "deleted": true, "persisted": persisted,
	})
}

// handleDatasetAggregate is the canonical run endpoint: the dataset is
// identified by the path hash (created earlier via PUT, or still warm in
// the cache), the body carries only the run spec. It shares the whole
// admission + solve flow with POST /v1/aggregate — including the approx-
// tier routing of over-budget universes — but never needs the rankings on
// the wire: a cold persisted dataset is read back from the store.
func (s *Server) handleDatasetAggregate(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	var req AggregateRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return
	}
	if len(req.Rankings) > 0 || len(req.TopLists) > 0 {
		s.writeError(w, http.StatusBadRequest,
			"the dataset is identified by the path hash; the body carries only the run spec (PUT the dataset to /v1/datasets, or POST it inline to /v1/aggregate)")
		return
	}
	spec, err := req.resolveSpec().Normalize()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	d, u, ok := s.datasetByHash(hash)
	if !ok {
		s.writeError(w, http.StatusNotFound,
			fmt.Sprintf("dataset %s is neither cached nor persisted; PUT it to /v1/datasets first", hash))
		return
	}
	// A stored toplists dataset is incomplete; flag it so admission routes
	// it to the approximation tier — the only one that serves it.
	s.serveAggregateOn(w, r, spec, d, u, !d.Complete())
}

// datasetByHash resolves a dataset handle to its rankings: the cached
// session's dataset when one is live (a lock-protected pointer read — the
// dataset value is immutable), the store's current state otherwise. The
// universe is non-nil only when the store holds element names (cache-only
// datasets don't retain them).
func (s *Server) datasetByHash(hash string) (*rankings.Dataset, *rankings.Universe, bool) {
	if sess, ok := s.cache.Peek(hash); ok {
		return sess.Dataset(), nil, true
	}
	if sess, ok := s.approx.Peek(hash); ok {
		return sess.Dataset(), nil, true
	}
	if s.store == nil {
		return nil, nil, false
	}
	d, names, err := s.store.Dataset(hash)
	if err != nil {
		return nil, nil, false
	}
	var u *rankings.Universe
	if len(names) == d.N {
		u = rankings.NewUniverse()
		for _, nm := range names {
			u.ID(nm)
		}
		if u.Size() != d.N {
			u = nil
		}
	}
	return d, u, true
}
