// Command serve runs the rankagg HTTP aggregation server: a long-lived
// process exposing every registered algorithm over a JSON API, backed by a
// hash-keyed LRU of pair-matrix sessions so repeated queries over hot
// datasets skip the O(m·n²) build entirely.
//
// Usage:
//
//	serve [-addr :8080] [-cache-entries 64] [-cache-bytes 1073741824]
//	      [-consensus-bytes 67108864]
//	      [-workers N] [-max-workers-per-run N] [-max-timeout 30s]
//	      [-max-body 33554432] [-max-elements 4096]
//	      [-matrix-mode auto|int32|int16|int8] [-approx-mode auto|force|off]
//	      [-compact-interval 1m] [-data-dir DIR] [-replay-budget 64]
//
// Endpoints: PUT/GET /v1/datasets (create by content / list), POST
// /v1/datasets/{hash}/aggregate (canonical run endpoint), PATCH
// /v1/datasets/{hash} (apply an atomic batch of ranking deltas in O(n²)
// per ranking; the response and Location header carry the rotated dataset
// hash), GET /v1/datasets/{hash} (dataset metadata), DELETE
// /v1/datasets/{hash}, POST /v1/aggregate (inline-dataset compatibility
// alias), GET /v1/algorithms, GET /healthz, GET /metrics (Prometheus text
// format). See the README's Serving and "Persistence & dataset API"
// sections for the request schemas and curl examples.
//
// With -data-dir, datasets PUT to /v1/datasets persist across restarts:
// each one keeps a wire-form snapshot plus an fsync'd append-only delta
// log, PATCHes are write-ahead logged before any in-memory state moves,
// evicted or post-restart sessions rebuild by snapshot + replay, and
// consensus results persist alongside — a restarted server answers repeat
// traffic with consensus_hit: true and zero solver runs. -replay-budget
// bounds the pending log length before it is folded into a fresh snapshot.
//
// SIGINT/SIGTERM triggers a graceful shutdown: /healthz flips to 503 so
// load balancers drain the instance, in-flight aggregations run to
// completion (bounded by -max-timeout), then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rankagg"
	"rankagg/internal/server"
	"rankagg/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheEntries := flag.Int("cache-entries", 64, "max sessions in the matrix LRU (0 = unlimited)")
	cacheBytes := flag.Int64("cache-bytes", 1<<30, "max pair-matrix bytes in the LRU (0 = unlimited)")
	consensusBytes := flag.Int64("consensus-bytes", 64<<20, "max bytes of cached consensus results keyed by (dataset hash, run spec) (0 = unlimited)")
	workers := flag.Int("workers", 0, "global worker budget shared by concurrent requests (0 = all CPUs)")
	perRun := flag.Int("max-workers-per-run", 0, "cap one request's share of the worker budget (0 = may take all)")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "cap on any request's time budget (also the default budget)")
	maxBody := flag.Int64("max-body", 32<<20, "max request body bytes")
	maxElements := flag.Int("max-elements", 4096, "per-request memory cap, expressed as a universe size: the budget is 12·n² bytes; each request is charged its real projected matrix bytes under -matrix-mode, an approx-tier request or incomplete PUT its O(n) matrix-free state (0 = unlimited)")
	matrixMode := flag.String("matrix-mode", "auto", "pair-matrix storage: auto (leanest backend the dataset admits: int8 counts when m <= 127, int16 when m <= 32767, derived tied plane on complete datasets), int32 (full 3-plane layout), int16 or int8 (pin a compact width)")
	approxMode := flag.String("approx-mode", "auto", "matrix-free approximation tier admission: auto (serve over-budget and top-list datasets via lehmer/avgrank/scores instead of rejecting them), force (serve every aggregation matrix-free), off (over-budget datasets 413; explicitly requested approx algorithms still run)")
	compactInterval := flag.Duration("compact-interval", time.Minute, "idle-sweep period for re-compacting cached matrices widened by PATCH deltas back to their natural storage width (0 = never)")
	dataDir := flag.String("data-dir", "", "durable dataset store directory: PUT datasets, their delta logs and consensus results survive restarts (empty = ephemeral, cache only)")
	replayBudget := flag.Int("replay-budget", 64, "pending delta-log records per dataset before the log is folded into a fresh snapshot (0 = never compact)")
	flag.Parse()

	mode, err := rankagg.ParseMatrixMode(*matrixMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}
	amode, err := server.ParseApproxMode(*approxMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}

	// The flags say "0 = unlimited"; Config uses 0 for "default" and
	// negative for "unlimited".
	unlimitedInt := func(v int) int {
		if v == 0 {
			return -1
		}
		return v
	}
	unlimitedInt64 := func(v int64) int64 {
		if v == 0 {
			return -1
		}
		return v
	}
	logger := log.New(os.Stderr, "serve: ", log.LstdFlags)
	var st *store.Store
	if *dataDir != "" {
		st, err = store.Open(store.Config{
			Dir:          *dataDir,
			ReplayBudget: unlimitedInt(*replayBudget),
			MatrixMode:   mode,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		defer st.Close()
	}
	s := server.New(server.Config{
		CacheEntries:     unlimitedInt(*cacheEntries),
		CacheBytes:       unlimitedInt64(*cacheBytes),
		ConsensusBytes:   unlimitedInt64(*consensusBytes),
		Workers:          *workers,
		MaxWorkersPerRun: *perRun,
		MaxTimeout:       *maxTimeout,
		MaxBodyBytes:     *maxBody,
		MaxElements:      unlimitedInt(*maxElements),
		MatrixMode:       mode,
		ApproxMode:       amode,
		Store:            st,
		Log:              logger,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	var stopCompactor func()
	if *compactInterval > 0 {
		stopCompactor = s.StartCompactor(*compactInterval)
	}

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (workers=%d cache=%d entries / %d bytes, matrix-mode=%s, approx-mode=%s, max timeout %v)",
			*addr, *workers, *cacheEntries, *cacheBytes, mode, amode, *maxTimeout)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Fatalf("listener: %v", err)
	case sig := <-sigc:
		logger.Printf("%v: draining (in-flight runs finish, bounded by %v)", sig, *maxTimeout)
	}

	if stopCompactor != nil {
		stopCompactor()
	}
	s.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *maxTimeout+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Fatalf("shutdown: %v", err)
	}
	fmt.Fprintln(os.Stderr, "serve: drained, bye")
}
