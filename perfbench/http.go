package main

// The served path: server.New on a loopback listener in this process, and
// closed-loop clients that each send their next request only once the
// previous answer has been read in full.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"rankagg/internal/server"
	"rankagg/internal/store"
)

// harness is one running server: its store (when durable), the HTTP
// listener and a client transport capped at one connection per client.
type harness struct {
	st     *store.Store
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startServer opens the store at dir (ephemeral when dir is "") and serves
// server.New with the default config on a loopback port.
func startServer(dir string, maxElements int) (*harness, error) {
	h := &harness{served: make(chan error, 1)}
	cfg := server.Config{MaxElements: maxElements, Log: log.New(io.Discard, "", 0)}
	if dir != "" {
		st, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			return nil, fmt.Errorf("opening the store: %w", err)
		}
		h.st = st
		cfg.Store = st
	}
	h.srv = server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.closeStore()
		return nil, err
	}
	h.hs = &http.Server{Handler: h.srv.Handler()}
	go func() { h.served <- h.hs.Serve(ln) }()
	h.base = "http://" + ln.Addr().String()
	h.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     nClients,
		MaxIdleConnsPerHost: nClients,
		DisableCompression:  true,
	}}
	return h, nil
}

func (h *harness) closeStore() error {
	if h.st == nil {
		return nil
	}
	return h.st.Close()
}

// stop drains the server, waits for Serve to return and closes the store.
func (h *harness) stop() error {
	h.srv.Drain()
	h.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := h.closeStore(); err == nil {
		err = cerr
	}
	return err
}

// do sends one request and reads the whole answer into buf.
func (h *harness) do(method, path string, body []byte, buf *bytes.Buffer) (status int, location string, err error) {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, resp.Header.Get("Location"), nil
}

// result is what a client keeps of one op's answer for the checks.
type result struct {
	dur      time.Duration
	cpu      time.Duration // the process's CPU time while the op was in flight
	status   int
	body     []byte // the answer, kept for every non-hit op
	digest   [32]byte
	location string // patch: the rotated hash handed back
	bytesIn  int    // request bytes sent
	bytesOut int    // response bytes read
	err      error
}

// consensusSegment returns the bytes of an aggregate answer from its
// "consensus" field up to its "score" field; a hit must repeat its
// solve's segment byte for byte. The encoder writes fields in declaration
// order, so this is a byte search, not a parse.
func consensusSegment(body []byte) []byte {
	i := bytes.Index(body, []byte(`"consensus":`))
	j := bytes.Index(body, []byte(`,"score":`))
	if i < 0 || j < i {
		return nil
	}
	return body[i:j]
}

func aggregatePath(hash string) string { return "/v1/datasets/" + hash + "/aggregate" }

// exec sends op o with cur holding the client's current hash per slot, and
// records its answer in r. Only a PATCH's Location is looked at here.
func (h *harness) exec(o *op, cur []string, buf *bytes.Buffer, r *result) {
	start, cpu := time.Now(), processCPU()
	r.bytesIn = len(o.body)
	switch o.kind {
	case kindSolve, kindHit, kindWarm:
		r.status, _, r.err = h.do(http.MethodPost, aggregatePath(cur[o.slot]), o.body, buf)
	case kindCold:
		r.status, _, r.err = h.do(http.MethodPost, "/v1/aggregate", o.body, buf)
	case kindPatch:
		r.status, r.location, r.err = h.do(http.MethodPatch, "/v1/datasets/"+cur[o.slot], o.body, buf)
		if r.status == http.StatusOK {
			cur[o.slot] = strings.TrimPrefix(r.location, "/v1/datasets/")
		}
	}
	r.dur, r.cpu = time.Since(start), processCPU()-cpu
	r.bytesOut += buf.Len()
	if o.kind == kindHit {
		r.digest = sha256.Sum256(consensusSegment(buf.Bytes()))
	} else {
		r.body = bytes.Clone(buf.Bytes())
	}
}

// runPhase drives both clients in closed loop, each continuing its
// sequence after res, until client c holds upTo[c] answers or the
// deadline has passed; a zero deadline never passes.
func (h *harness) runPhase(p *plan, cur [nClients][]string, res *[nClients][]result, upTo [nClients]int, deadline time.Time) {
	parallel(func(c int) {
		var buf bytes.Buffer
		for i := len(res[c]); i < min(upTo[c], len(p.ops[c])); i++ {
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				break
			}
			res[c] = append(res[c], result{})
			h.exec(&p.ops[c][i], cur[c], &buf, &res[c][i])
		}
	})
}

// runSerial continues both clients' sequences after res with one op in
// flight at a time, the clients taking turns, until the deadline. With
// nothing else running in the process, an op's CPU time is its own: what
// the served path, client side included, spent on that request. Every
// eighth turn starts with a speed probe, appended to probes.
func (h *harness) runSerial(p *plan, cur [nClients][]string, res *[nClients][]result, deadline time.Time, probes *[]time.Duration) {
	var buf bytes.Buffer
	for turn := 0; time.Now().Before(deadline); turn++ {
		if turn%8 == 0 {
			*probes = append(*probes, probe())
		}
		for c := range res {
			i := len(res[c])
			if i == len(p.ops[c]) {
				return // the checks fail a client that ran out
			}
			res[c] = append(res[c], result{})
			h.exec(&p.ops[c][i], cur[c], &buf, &res[c][i])
		}
	}
}

// parallel runs fn(c) for each client and waits for both.
func parallel(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}
