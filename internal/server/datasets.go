package server

// The dataset-resource surface: datasets as first-class REST resources
// identified by content hash, rather than side effects of aggregation.
// PUT creates by content (idempotent — the hash IS the identity), GET
// lists what the store and the cache hold, DELETE evicts and tombstones,
// and POST /v1/datasets/{hash}/aggregate is the canonical run endpoint
// (POST /v1/aggregate takes the dataset inline instead).

import (
	"fmt"
	"net/http"
	"slices"

	"rankagg"
	"rankagg/internal/cache"
	"rankagg/internal/rankings"
	"rankagg/internal/store"
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
	if !s.decodeBody(w, r, &wire) {
		return
	}
	d, _, err := decodeDataset(wire.DatasetWire, wire.TopLists)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// An incomplete dataset is the approximation tier's alone; its O(n)
	// state must fit the budget before the store or the cache hashes it.
	if !d.Complete() && !s.admitApprox(w, d) {
		return
	}
	var (
		hash    string
		created bool
	)
	switch {
	case s.store != nil:
		if hash, created, err = s.store.Create(d, wire.Names); err != nil {
			s.log.Printf("create dataset: %v", err)
			s.writeError(w, http.StatusInternalServerError, "persisting the dataset failed")
			return
		}
	case !d.Complete():
		// Only the approx tier can hold an incomplete dataset: its
		// delta-maintainable session is the cache entry, weighed by its
		// O(n + Σ L_i) state, admitted above instead of by the matrix check.
		hash, created, err = putSession(s.approx, func() (*rankagg.ApproxSession, error) {
			return rankagg.NewApproxSession(d)
		}, func(*rankagg.ApproxSession) {})
	default:
		// The matrix is built now, so it must pass the same admission the
		// equivalent POST would.
		if need, over := s.matrixOverBudget(d.N, d.M(), true, 0); over {
			s.writeOverBudget(w, matrixBudget, fmt.Sprintf("dataset has %d elements and its %s pair matrix", d.N, s.matrixMode), need)
			return
		}
		hash, created, err = putSession(s.cache, func() (*rankagg.Session, error) {
			return rankagg.NewSession(d, rankagg.WithMatrixMode(s.matrixMode))
		}, func(sess *rankagg.Session) { sess.Pairs() })
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	s.writeJSON(w, code, DatasetCreateResponse{
		DatasetHash: hash, N: d.N, M: d.M(), Created: created, Persisted: s.store != nil,
	})
}

// putSession makes a session the cache entry of its dataset on an
// ephemeral server. open builds it (the constructor validates the
// dataset); the entry is keyed by the session's own hash, which the
// session then keeps, so the first by-hash aggregate finds it without
// hashing the dataset again. build runs inside the cache's single flight:
// the matrix tier's eager O(m·n²) build. created reports that no entry
// held the hash before.
func putSession[S servedSession](c *cache.LRU[S], open func() (S, error), build func(S)) (hash string, created bool, err error) {
	sess, err := open()
	if err != nil {
		return "", false, err
	}
	hash = sess.Hash()
	_, hit, err := c.GetOrBuild(hash, func() (S, error) {
		build(sess)
		return sess, nil
	})
	return hash, !hit, err
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

// handleListDatasets lists every dataset the server can aggregate by hash
// — the store's persisted datasets and the entries of both session caches —
// through the dataset view, in hash order.
func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	hashes := append(s.cache.Keys(), s.approx.Keys()...)
	if s.store != nil {
		for _, info := range s.store.List() {
			hashes = append(hashes, info.Hash)
		}
	}
	slices.Sort(hashes)
	out := make([]DatasetListEntry, 0, len(hashes))
	for _, hash := range slices.Compact(hashes) {
		v := s.view(hash)
		if !v.held() {
			continue // evicted or deleted since the keys were read
		}
		e := DatasetListEntry{DatasetHash: hash, Persisted: v.stored != nil, Cached: v.cached(), Approx: v.approx != nil}
		e.N, e.M, e.Version = v.meta()
		switch {
		case v.stored != nil:
			e.LogRecords, e.Bytes = v.stored.LogRecords, v.stored.Bytes
		case v.matrix != nil:
			e.Bytes = v.matrix.MatrixBytes()
		default:
			e.Bytes = v.approx.StateBytes()
		}
		out = append(out, e)
	}
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
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Rankings) > 0 || len(req.TopLists) > 0 {
		s.writeError(w, http.StatusBadRequest,
			"the dataset is identified by the path hash; the body carries only the run spec (PUT the dataset to /v1/datasets, or POST it inline to /v1/aggregate)")
		return
	}
	spec, err := req.runSpec()
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

// datasetView is what the server holds for one dataset hash: the session
// of each cache (nil where that cache holds none) and, when the dataset is
// persisted, the store's metadata. Reading it moves no LRU entry and
// counts no hit or miss. Every handler that reports on or resolves a hash
// reads it.
type datasetView struct {
	matrix *rankagg.Session
	approx *rankagg.ApproxSession
	stored *store.DatasetInfo
}

func (s *Server) view(hash string) datasetView {
	var v datasetView
	v.matrix, _ = s.cache.Peek(hash)
	v.approx, _ = s.approx.Peek(hash)
	if s.store != nil {
		if info, ok := s.store.Info(hash); ok {
			v.stored = &info
		}
	}
	return v
}

func (v datasetView) cached() bool { return v.matrix != nil || v.approx != nil }

func (v datasetView) held() bool { return v.cached() || v.stored != nil }

// meta returns the dataset's size and version: the store's when it holds
// the dataset, else a cached session's. A session rebuilt from the store
// counts only the deltas replayed on top of the last compacted snapshot,
// so for a persisted dataset the store's version is the one to report.
func (v datasetView) meta() (n, m int, version uint64) {
	switch {
	case v.stored != nil:
		return v.stored.N, v.stored.M, v.stored.Version
	case v.matrix != nil:
		d := v.matrix.Dataset()
		return d.N, d.M(), v.matrix.Version()
	case v.approx != nil:
		d := v.approx.Dataset()
		return d.N, d.M(), v.approx.Version()
	}
	return 0, 0, 0
}

// datasetOf resolves the view of hash to its rankings — a cached session's
// dataset when one is live (a lock-protected pointer read; the dataset
// value is immutable), the store's otherwise — and the element names the
// store holds for it. ok is false when the server holds neither, or the
// persisted dataset rotated away since the view was read.
func (s *Server) datasetOf(hash string, v datasetView) (d *rankings.Dataset, names []string, ok bool) {
	switch {
	case v.matrix != nil:
		d = v.matrix.Dataset()
	case v.approx != nil:
		d = v.approx.Dataset()
	}
	if v.stored != nil {
		if sd, sn, err := s.store.Dataset(hash); err == nil {
			names = sn
			if d == nil {
				d = sd
			}
		}
	}
	return d, names, d != nil
}

// datasetByHash resolves a dataset handle to its rankings and, when the
// store holds element names for it, their universe.
func (s *Server) datasetByHash(hash string) (*rankings.Dataset, *rankings.Universe, bool) {
	d, names, ok := s.datasetOf(hash, s.view(hash))
	if !ok {
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
