package main

// The traced replay. It sends the untraced run's op sequence again, but
// in-process: for every op it calls the public functions the server calls,
// in the server's order, with a span around each call into a layer. Spans
// are kept in memory per client goroutine and summarized when the replay
// ends. A layer's self time is its spans' time minus the time their child
// spans cover. The replay runs twice, with spans and without, and the
// difference in wall time is the tracing overhead.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rankagg"
	"rankagg/internal/cache"
	"rankagg/internal/rankings"
	"rankagg/internal/server"
	"rankagg/internal/store"
)

// layer is a module on the served path; layerOp is the replay's own glue
// between calls.
type layer uint8

const (
	layerOp layer = iota
	layerServer
	layerRankings
	layerCache
	layerRankagg
	layerKendall
	layerAlgo
	layerApprox
	layerStore
	numLayers
)

var layerNames = [numLayers]string{"op", "server", "rankings", "cache", "rankagg", "kendall", "algo", "approx", "store"}

// phase tags a span with the part of the run it belongs to.
const (
	phaseSetup uint8 = iota
	phaseWarmup
	phaseTimed
	phaseRestart
)

type span struct {
	name       string
	label      string // the algorithm of a solve, the class of an op
	layer      layer
	parent     int32 // index of the enclosing span, -1 at top level
	op         int32 // the op's index in its client's sequence
	phase      uint8
	start, end time.Duration
}

// tracer records one goroutine's spans. Off, it only makes the calls.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	cur   int32
	op    int32
	phase uint8
}

func (t *tracer) do(l layer, name string, fn func()) { t.doLabel(l, name, "", fn) }

func (t *tracer) doLabel(l layer, name, label string, fn func()) {
	if !t.on {
		fn()
		return
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, label: label, layer: l, parent: t.cur, op: t.op, phase: t.phase, start: time.Since(t.epoch)})
	t.cur = i
	fn()
	t.cur = t.spans[i].parent
	t.spans[i].end = time.Since(t.epoch)
}

// replica holds what server.New holds, configured as the server's zero
// Config configures it.
type replica struct {
	cache     *cache.Cache
	approx    *cache.ApproxCache
	consensus *cache.ConsensusCache
	store     *store.Store
	tokens    chan struct{}
	budget    int64 // the admission budget in bytes

	mu  sync.Mutex
	ran map[*rankagg.ApproxSession]map[string]bool // approx runs that built their state
}

func openReplica(t *tracer, dir string, maxElements int) (*replica, error) {
	if maxElements == 0 {
		maxElements = 4096
	}
	r := &replica{
		cache:     cache.New(64, 1<<30),
		approx:    cache.NewApprox(64, (1<<30)/16),
		consensus: cache.NewConsensus(64 << 20),
		tokens:    make(chan struct{}, runtime.NumCPU()),
		budget:    3 * 4 * int64(maxElements) * int64(maxElements),
		ran:       map[*rankagg.ApproxSession]map[string]bool{},
	}
	if dir == "" {
		return r, nil
	}
	var err error
	t.do(layerStore, "store.open", func() { r.store, err = store.Open(store.Config{Dir: dir}) })
	if err != nil {
		return nil, err
	}
	t.do(layerCache, "cache.preload", func() {
		for _, info := range r.store.List() {
			entries, warm, version, ok := r.store.Consensus(info.Hash)
			if !ok {
				continue
			}
			for specKey, e := range entries {
				r.consensus.Put(info.Hash, specKey, version, e.Result())
			}
			if warm != nil {
				r.consensus.PutWarmHint(info.Hash, warm.Result(), version)
			}
		}
	})
	return r, nil
}

func (r *replica) close() error {
	if r.store == nil {
		return nil
	}
	return r.store.Close()
}

// acquire takes one worker token, then any idle ones, as the server does;
// the wait is the server's worker-token queueing.
func (r *replica) acquire(t *tracer) (n int) {
	t.do(layerServer, "server.tokens", func() {
		r.tokens <- struct{}{}
		n = 1
		for n < cap(r.tokens) {
			select {
			case r.tokens <- struct{}{}:
				n++
				continue
			default:
			}
			break
		}
	})
	return n
}

func (r *replica) release(n int) {
	for i := 0; i < n; i++ {
		<-r.tokens
	}
}

func (r *replica) encode(t *tracer, v any) (err error) {
	t.do(layerServer, "server.encode", func() { _, err = json.Marshal(v) })
	return err
}

// exec replays one op; cur holds the client's current hash per slot.
func (r *replica) exec(t *tracer, o *op, cur []string) error {
	switch o.kind {
	case kindSolve, kindHit, kindWarm:
		return r.aggregateByHash(t, cur[o.slot], o.body)
	case kindCold:
		return r.aggregateInline(t, o.body)
	case kindPatch:
		h, err := r.patch(t, cur[o.slot], o.body)
		cur[o.slot] = h
		return err
	}
	return nil
}

// aggregateByHash is POST /v1/datasets/{hash}/aggregate.
func (r *replica) aggregateByHash(t *tracer, hash string, body []byte) error {
	var req server.AggregateRequest
	var err error
	t.do(layerServer, "server.decode", func() { err = json.Unmarshal(body, &req) })
	if err != nil || req.Spec == nil {
		return fmt.Errorf("decoding the aggregate request: %v", err)
	}
	var spec rankagg.RunSpec
	t.do(layerRankagg, "rankagg.spec", func() { spec, err = req.Spec.Normalize() })
	if err != nil {
		return err
	}
	var d *rankings.Dataset
	t.do(layerCache, "cache.peek", func() {
		if sess, ok := r.cache.Peek(hash); ok {
			d = sess.Dataset()
		} else if sess, ok := r.approx.Peek(hash); ok {
			d = sess.Dataset()
		}
	})
	if d == nil && r.store != nil {
		t.do(layerStore, "store.dataset", func() { d, _, err = r.store.Dataset(hash) })
	}
	if d == nil {
		return fmt.Errorf("dataset %s not found (%v)", hash, err)
	}
	return r.serve(t, spec, d, !d.Complete())
}

// aggregateInline is POST /v1/aggregate.
func (r *replica) aggregateInline(t *tracer, body []byte) error {
	var req server.AggregateRequest
	var err error
	t.do(layerServer, "server.decode", func() { err = json.Unmarshal(body, &req) })
	if err != nil || req.Spec == nil {
		return fmt.Errorf("decoding the aggregate request: %v", err)
	}
	var spec rankagg.RunSpec
	t.do(layerRankagg, "rankagg.spec", func() { spec, err = req.Spec.Normalize() })
	if err != nil {
		return err
	}
	var d *rankings.Dataset
	fromTopLists := len(req.TopLists) > 0
	t.do(layerRankings, "rankings.decode", func() {
		if fromTopLists {
			tw := rankings.TopListsWire{N: req.N, Names: req.Names, TopLists: req.TopLists}
			d, _, err = tw.Decode()
		} else {
			d, _, err = req.DatasetWire.Decode()
		}
	})
	if err != nil {
		return err
	}
	return r.serve(t, spec, d, fromTopLists)
}

// serve is the server's admission and solve flow.
func (r *replica) serve(t *tracer, spec rankagg.RunSpec, d *rankings.Dataset, fromTopLists bool) error {
	runName := spec.Algorithm
	approxTier := rankagg.MatrixFree(runName)
	if !approxTier && (fromTopLists || rankagg.PredictMatrixBytes(rankagg.MatrixAuto, d.N, d.M(), d.Complete()) > r.budget) {
		approxTier, runName = true, rankagg.ApproxDefault(d)
	}
	if approxTier {
		tokens := r.acquire(t)
		defer r.release(tokens)
		return r.serveApprox(t, spec, d, runName, tokens)
	}
	start := time.Now()
	var hash string
	t.do(layerRankings, "rankings.hash", func() { hash = d.Hash() })
	specKey, err := spec.Key()
	if err != nil {
		return err
	}
	var res *rankagg.Result
	var hit bool
	t.do(layerCache, "cache.consensus", func() {
		res, hit, err = r.consensus.GetOrRun(hash, specKey, func() (*rankagg.Result, uint64, error) {
			tokens := r.acquire(t)
			defer r.release(tokens)
			sess, err := r.session(t, hash, d)
			if err != nil {
				return nil, 0, err
			}
			version := sess.Version()
			opts := []rankagg.Option{rankagg.WithWorkers(tokens)}
			label := spec.Algorithm
			if rankagg.CanWarmStart(spec.Algorithm) {
				var hint *rankagg.Result
				t.do(layerCache, "cache.warm_hint", func() { hint = r.consensus.TakeWarmHint(hash) })
				if hint != nil {
					opts = append(opts, rankagg.WithWarmStart(hint.Consensus))
					label = "warm"
				}
			}
			snap := sess.Pairs()
			var cur string
			t.do(layerRankings, "rankings.hash", func() { cur = sess.Hash() })
			if cur != hash {
				return nil, 0, fmt.Errorf("session of %s rotated to %s", hash, cur)
			}
			var res *rankagg.Result
			t.doLabel(layerAlgo, "algo.solve", label, func() {
				res, err = sess.RunSpec(context.Background(), spec, append(opts, rankagg.WithPairs(snap))...)
			})
			if err != nil {
				return nil, 0, err
			}
			if r.store != nil {
				t.do(layerStore, "store.save_consensus", func() { r.store.SaveConsensus(hash, specKey, store.WireFromResult(res)) })
			}
			return res, version, nil
		})
	})
	if err != nil {
		return err
	}
	return r.encode(t, server.AggregateResponse{
		Algorithm: res.Algorithm, Consensus: res.Consensus, Score: res.Score, Proved: res.Proved,
		ElapsedMS: float64(time.Since(start).Nanoseconds()) / 1e6, DatasetHash: hash,
		CacheHit: hit, ConsensusHit: hit, N: d.N, M: d.M(), Stats: res.Stats,
	})
}

// session is the session cache lookup, building the pair matrix on a
// miss. (No workload persists a dataset the exact tier serves, so the
// server's rebuild from the store is not replayed.)
func (r *replica) session(t *tracer, hash string, d *rankings.Dataset) (sess *rankagg.Session, err error) {
	t.do(layerCache, "cache.session", func() {
		sess, _, err = r.cache.GetOrBuild(hash, func() (*rankagg.Session, error) {
			var s *rankagg.Session
			var err error
			t.do(layerKendall, "kendall.build", func() {
				if s, err = rankagg.NewSession(d); err == nil {
					s.Pairs()
				}
			})
			return s, err
		})
	})
	return sess, err
}

// serveApprox is the matrix-free leg.
func (r *replica) serveApprox(t *tracer, spec rankagg.RunSpec, d *rankings.Dataset, runName string, tokens int) error {
	start := time.Now()
	spec.Algorithm = runName
	var hash string
	t.do(layerRankings, "rankings.hash", func() { hash = d.Hash() })
	specKey, err := spec.Key()
	if err != nil {
		return err
	}
	var res *rankagg.Result
	var hit bool
	t.do(layerCache, "cache.consensus", func() {
		res, hit, err = r.consensus.GetOrRun(hash, specKey, func() (*rankagg.Result, uint64, error) {
			var sess *rankagg.ApproxSession
			var err error
			t.do(layerCache, "cache.approx_session", func() {
				sess, _, err = r.approx.GetOrBuild(hash, func() (*rankagg.ApproxSession, error) {
					if r.store != nil && r.store.Has(hash) {
						var s *rankagg.ApproxSession
						var err error
						t.do(layerStore, "store.rebuild", func() { s, _, err = r.store.RebuildApprox(hash) })
						if err == nil {
							return s, nil
						}
					}
					var s *rankagg.ApproxSession
					var err error
					t.do(layerRankagg, "rankagg.new_approx_session", func() { s, err = rankagg.NewApproxSession(d) })
					return s, err
				})
			})
			if err != nil {
				return nil, 0, err
			}
			version := sess.Version()
			name := "approx.rerun"
			if r.firstRun(sess, runName) {
				name = "approx.run"
			}
			var res *rankagg.Result
			t.do(layerApprox, name, func() { res, err = sess.RunSpecPinned(context.Background(), hash, spec, rankagg.WithWorkers(tokens)) })
			if err != nil {
				return nil, 0, err
			}
			if r.store != nil {
				t.do(layerStore, "store.save_consensus", func() { r.store.SaveConsensus(hash, specKey, store.WireFromResult(res)) })
			}
			return res, version, nil
		})
	})
	if err != nil {
		return err
	}
	return r.encode(t, server.AggregateResponse{
		Algorithm: res.Algorithm, Consensus: res.Consensus, Score: res.Score,
		ElapsedMS: float64(time.Since(start).Nanoseconds()) / 1e6, DatasetHash: hash,
		CacheHit: hit, ConsensusHit: hit, Approx: true, N: d.N, M: d.M(), Stats: res.Stats,
	})
}

// firstRun reports whether sess has not yet run algo, so the run builds
// the incremental state rather than reading it.
func (r *replica) firstRun(sess *rankagg.ApproxSession, algo string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ran[sess] == nil {
		r.ran[sess] = map[string]bool{}
	}
	first := !r.ran[sess][algo]
	r.ran[sess][algo] = true
	return first
}

// patch is PATCH /v1/datasets/{hash}; it returns the rotated hash.
func (r *replica) patch(t *tracer, hash string, body []byte) (string, error) {
	var req server.PatchRequest
	var err error
	t.do(layerServer, "server.decode", func() { err = json.Unmarshal(body, &req) })
	if err != nil {
		return hash, err
	}
	var add, remove []*rankings.Ranking
	for _, o := range req.Ops {
		if o.Add != nil {
			add = append(add, o.Add)
		} else {
			remove = append(remove, o.Remove)
		}
	}
	start := time.Now()
	resp := server.PatchResponse{BaseHash: hash, Added: len(add), Removed: len(remove), DeltaApplied: true}
	var version uint64
	if r.store != nil && r.store.Has(hash) {
		t.do(layerStore, "store.dataset", func() { _, _, err = r.store.Dataset(hash) })
		if err != nil {
			return hash, err
		}
		var info store.DatasetInfo
		t.do(layerStore, "store.append", func() { resp.DatasetHash, info, err = r.store.AppendPatch(hash, add, remove) })
		if err != nil {
			return hash, err
		}
		// The server offers the delta to the exact-tier cache first; no
		// workload persists a dataset that tier holds, so that is a miss
		// and is not replayed.
		aKey, aFound, aErr := r.mutateApprox(t, hash, add, remove)
		switch {
		case aFound && aErr == nil && aKey != resp.DatasetHash:
			r.approx.Remove(aKey)
		case aFound && aErr != nil:
			r.approx.Remove(hash)
		}
		version, resp.N, resp.M, resp.Persisted = info.Version, info.N, info.M, true
	} else {
		newKey, found, merr := r.mutate(t, hash, add, remove)
		if !found || merr != nil {
			return hash, fmt.Errorf("patching %s: found=%v: %v", hash, found, merr)
		}
		resp.DatasetHash = newKey
	}
	t.do(layerCache, "cache.invalidate", func() {
		if _, warm := r.consensus.InvalidateDataset(hash); warm != nil && !warm.Approx && resp.DatasetHash != hash {
			r.consensus.PutWarmHint(resp.DatasetHash, warm, version)
		}
	})
	resp.ElapsedMS = float64(time.Since(start).Nanoseconds()) / 1e6
	return resp.DatasetHash, r.encode(t, resp)
}

// mutate applies a delta to the cached session, re-keying it.
func (r *replica) mutate(t *tracer, hash string, add, remove []*rankings.Ranking) (newKey string, found bool, err error) {
	t.do(layerCache, "cache.mutate", func() {
		_, newKey, found, err = r.cache.Mutate(hash, func(sess *rankagg.Session) (string, error) {
			var err error
			t.do(layerRankagg, "rankagg.session_delta", func() { err = sess.ApplyDelta(add, remove) })
			if err != nil {
				return "", err
			}
			var h string
			t.do(layerRankings, "rankings.hash", func() { h = sess.Hash() })
			return h, nil
		})
	})
	return newKey, found, err
}

// mutateApprox applies a delta to the cached approx-tier session.
func (r *replica) mutateApprox(t *tracer, hash string, add, remove []*rankings.Ranking) (newKey string, found bool, err error) {
	t.do(layerCache, "cache.approx_mutate", func() {
		_, newKey, found, err = r.approx.Mutate(hash, func(sess *rankagg.ApproxSession) (string, error) {
			var err error
			t.do(layerRankagg, "rankagg.approx_delta", func() { err = sess.ApplyDelta(add, remove) })
			if err != nil {
				return "", err
			}
			var h string
			t.do(layerRankings, "rankings.hash", func() { h = sess.Hash() })
			return h, nil
		})
	})
	return newKey, found, err
}

// put is PUT /v1/datasets.
func (r *replica) put(t *tracer, body []byte) error {
	var wire server.DatasetPutRequest
	var err error
	t.do(layerServer, "server.decode", func() { err = json.Unmarshal(body, &wire) })
	if err != nil {
		return err
	}
	var d *rankings.Dataset
	t.do(layerRankings, "rankings.decode", func() {
		if len(wire.TopLists) > 0 {
			tw := rankings.TopListsWire{N: wire.N, Names: wire.Names, TopLists: wire.TopLists}
			d, _, err = tw.Decode()
		} else {
			d, _, err = wire.DatasetWire.Decode()
		}
	})
	if err != nil {
		return err
	}
	resp := server.DatasetCreateResponse{N: d.N, M: d.M()}
	switch {
	case r.store != nil:
		t.do(layerStore, "store.create", func() { resp.DatasetHash, resp.Created, err = r.store.Create(d, wire.Names) })
		resp.Persisted = true
	default:
		if rankagg.PredictMatrixBytes(rankagg.MatrixAuto, d.N, d.M(), true) > r.budget {
			return errors.New("dataset over the matrix budget")
		}
		t.do(layerRankings, "rankings.hash", func() { resp.DatasetHash = d.Hash() })
		_, err = r.session(t, resp.DatasetHash, d)
	}
	if err != nil {
		return err
	}
	return r.encode(t, resp)
}

// replayRun is one replay of the measured run.
type replayRun struct {
	tracers [nClients]*tracer
	wall    time.Duration // to the end of the timed phase's concurrent half, copying excluded
	errs    int
	first   error
}

// replay sends the measured run's ops (set-up PUTs, the warm-up and the
// ops the timed phase completed, the restart rounds and the final reopen)
// to a fresh replica, in the run's order; without spans (on false) it
// stops after the timed phase's concurrent half.
func replay(wl *workload, p *plan, m *measurement, dir string, on bool) (*replayRun, error) {
	rr := &replayRun{}
	epoch := time.Now()
	for c := range rr.tracers {
		rr.tracers[c] = &tracer{on: on, epoch: epoch, cur: -1, op: -1}
	}
	var mu sync.Mutex
	note := func(err error) {
		if err == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		rr.errs++
		if rr.first == nil {
			rr.first = err
		}
	}
	storeDir := ""
	if wl.durable {
		storeDir = filepath.Join(dir, "store")
	}
	t0 := rr.tracers[0]
	r, err := openReplica(t0, storeDir, wl.maxElements)
	if err != nil {
		return nil, err
	}
	for pi, body := range p.puts {
		t0.op = int32(pi)
		t0.doLabel(layerOp, "op", "put", func() { note(r.put(t0, body)) })
	}
	// The warm-up and the timed phase as the run had them: each client's
	// warm-up and concurrent ops from its own goroutine, then the serial
	// ones one at a time, the clients taking turns.
	var cur [nClients][]string
	for c := range cur {
		for _, pi := range p.slots[c] {
			cur[c] = append(cur[c], p.hashes[pi])
		}
	}
	sendOp := func(c, i int, phase uint8) {
		t, o := rr.tracers[c], &p.ops[c][i]
		t.phase, t.op = phase, int32(i)
		t.doLabel(layerOp, "op", kindNames[o.kind], func() { note(r.exec(t, o, cur[c])) })
	}
	parallel(func(c int) {
		for i := range p.warm[c] {
			sendOp(c, i, phaseWarmup)
		}
	})
	// As in the measured run, the restart rounds open copies of the store
	// the warm-up left; the copying is not replay time.
	copyStart := time.Now()
	dirs := make([]string, len(m.restarts))
	for round := range dirs {
		if storeDir != "" {
			dirs[round] = filepath.Join(dir, fmt.Sprintf("restart-%d", round))
			if err := copyDir(storeDir, dirs[round]); err != nil {
				return nil, err
			}
		}
	}
	copying := time.Since(copyStart)
	parallel(func(c int) {
		for i := p.warm[c]; i < m.serialFrom[c]; i++ {
			sendOp(c, i, phaseTimed)
		}
	})
	// The tracing overhead is the two replays' difference in wall time up
	// to here; the replay without spans stops here, which keeps a traced
	// run well inside its time limit.
	rr.wall = time.Since(epoch) - copying
	if !on {
		return rr, r.close()
	}
	for j := 0; ; j++ {
		ran := false
		for c := range cur {
			if i := m.serialFrom[c] + j; i < len(m.res[c]) {
				sendOp(c, i, phaseTimed)
				ran = true
			}
		}
		if !ran {
			break
		}
	}
	note(r.close())
	r = nil
	if m.final != nil {
		dirs = append(dirs, storeDir)
	}
	for round, ops := range m.reopens() {
		if r != nil {
			note(r.close())
		}
		t0.phase, t0.op = phaseRestart, -1
		if r, err = openReplica(t0, dirs[round], wl.maxElements); err != nil {
			return nil, err
		}
		for c := range ops {
			t := rr.tracers[c]
			t.phase = phaseRestart
			cur := make([]string, len(ops[c]))
			for i := range ops[c] {
				cur[i] = ops[c][i].agg.hash
			}
			for i := range ops[c] {
				ro := &ops[c][i]
				t.op = int32(i)
				t.doLabel(layerOp, "op", "restart", func() {
					if ro.put != nil {
						note(r.put(t, ro.put))
					}
					note(r.exec(t, &ro.agg, cur))
				})
			}
		}
	}
	if r != nil {
		note(r.close())
	}
	return rr, nil
}
