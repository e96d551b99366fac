package main

// Post-hoc checks of every answer, and the quality yardstick
// kemeny_gap_pct. Nothing here runs while a clock is running.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"rankagg"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
	"rankagg/internal/server"
)

// lowerBound returns the sum over element pairs of the cheapest of "a
// before b", "b before a" and "a tied with b" against d's rankings, under
// the paper's unit costs: one per ranking that orders the pair the other
// way or ties it, and one per ranking that orders a pair the consensus
// ties. Pairs an incomplete ranking does not cover cost nothing in it, as
// in rankagg.Score. No consensus scores below it, and it is computed
// without any of the program's solver or matrix code, so a change to them
// cannot move the yardstick.
func lowerBound(d *rankings.Dataset) int64 {
	n := d.N
	if n <= 4096 {
		before := make([]int32, n*n) // before[a*n+b]: rankings with a strictly before b
		tied := make([]int32, n*n)   // tied[a*n+b], a < b
		for _, r := range d.Rankings {
			pairsOf(r, func(a, b, cmp int) {
				switch {
				case cmp < 0:
					before[a*n+b]++
				case cmp > 0:
					before[b*n+a]++
				case a < b:
					tied[a*n+b]++
				default:
					tied[b*n+a]++
				}
			})
		}
		var lb int64
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				lb += cheapest(before[a*n+b], before[b*n+a], tied[a*n+b])
			}
		}
		return lb
	}
	// Large universes are only reached by top-k lists: count the pairs
	// that some list covers.
	var pc pairCounts
	return pc.bound(d)
}

// pairCounts is the sparse form of lowerBound for top-k lists, kept
// across the states of one dataset: the next state costs only the pairs
// of the lists it added and removed (rankings are matched by identity, as
// the client's states share them).
type pairCounts struct {
	d      *rankings.Dataset // the state counted
	counts map[uint64]*[3]int32
	lb     int64
}

func (pc *pairCounts) bound(d *rankings.Dataset) int64 {
	if pc.d == nil || pc.d.N != d.N {
		*pc = pairCounts{d: &rankings.Dataset{N: d.N}, counts: map[uint64]*[3]int32{}}
	}
	old := make(map[*rankings.Ranking]int, pc.d.M())
	for _, r := range pc.d.Rankings {
		old[r]++
	}
	for _, r := range d.Rankings {
		if old[r] > 0 {
			old[r]--
		} else {
			pc.count(r, d.N, 1)
		}
	}
	for r, left := range old {
		for ; left > 0; left-- {
			pc.count(r, d.N, -1)
		}
	}
	pc.d = d
	return pc.lb
}

// count adds (sign 1) or takes away (sign -1) the pairs of one list.
func (pc *pairCounts) count(r *rankings.Ranking, n int, sign int32) {
	pairsOf(r, func(a, b, cmp int) {
		if a > b {
			a, b, cmp = b, a, -cmp
		}
		k := uint64(a)*uint64(n) + uint64(b)
		c := pc.counts[k]
		if c == nil {
			c = new([3]int32)
			pc.counts[k] = c
		}
		pc.lb -= cheapest(c[0], c[1], c[2])
		switch {
		case cmp < 0:
			c[0] += sign
		case cmp > 0:
			c[1] += sign
		default:
			c[2] += sign
		}
		pc.lb += cheapest(c[0], c[1], c[2])
	})
}

// pairsOf calls fn for every pair of elements r covers, with cmp < 0 when
// a is ranked before b, > 0 after, 0 tied.
func pairsOf(r *rankings.Ranking, fn func(a, b, cmp int)) {
	for i, bi := range r.Buckets {
		for x, a := range bi {
			for _, b := range bi[x+1:] {
				fn(a, b, 0)
			}
			for _, bj := range r.Buckets[i+1:] {
				for _, b := range bj {
					fn(a, b, -1)
				}
			}
		}
	}
}

// cheapest is the least a consensus can pay on one pair that x rankings
// order a-before-b, y order b-before-a and z tie.
func cheapest(x, y, z int32) int64 {
	return int64(min(y+z, x+z, x+y))
}

// score is rankagg.Score: the sum over d's rankings of
// kendall.DistPositions against the consensus. Each call gets the
// positions of that ranking's own elements only — the distance compares
// positions pair by pair and skips elements a ranking lacks, so the sum is
// the same — which keeps a top-k list at O(L log L) instead of a pass over
// the whole universe per list.
func score(c *rankings.Ranking, d *rankings.Dataset) int64 {
	pc := c.Positions(d.N)
	var k int64
	var pr, ps []int
	for _, r := range d.Rankings {
		pr, ps = pr[:0], ps[:0]
		for i, b := range r.Buckets {
			for _, e := range b {
				pr = append(pr, pc[e])
				ps = append(ps, i+1)
			}
		}
		k += kendall.DistPositions(pr, ps)
	}
	return k
}

// hashMemo computes each dataset state's content hash once.
type hashMemo struct {
	mu sync.Mutex
	m  map[*rankings.Dataset]string
}

func (h *hashMemo) of(d *rankings.Dataset) string {
	h.mu.Lock()
	s, ok := h.m[d]
	h.mu.Unlock()
	if !ok {
		s = d.Hash()
		h.mu.Lock()
		h.m[d] = s
		h.mu.Unlock()
	}
	return s
}

// job is one post-hoc check. run may execute on any goroutine; merge, if
// set, then runs on the checker's goroutine in the order the jobs were
// added, with run's answer.
type job struct {
	run   func() (*server.AggregateResponse, error)
	merge func(*server.AggregateResponse)
	resp  *server.AggregateResponse
	err   error
}

// checker accumulates check failures and the quality sums.
type checker struct {
	hashes   *hashMemo
	jobs     []*job
	failed   int
	messages []string // the first few failures, for the report
	dense    map[*rankings.Dataset]int64
	chains   map[[2]int]*pairCounts // top-k list datasets, by (client, slot)
	// Quality: Σ score and Σ lower bound over the distinct answers in the
	// quality prefix.
	score, lbSum int64
	answers      int
	// Warm ops whose answer reports a consumed warm start.
	warm, warmStarted int
	// Approx answers recomputed with rankagg.RunMatrixFree.
	sampled int
	// Search steps (moves + iterations) reported by exact-tier solves.
	steps, solves int64
}

func newChecker(hashes *hashMemo) *checker {
	return &checker{hashes: hashes, dense: map[*rankings.Dataset]int64{}, chains: map[[2]int]*pairCounts{}}
}

func (ck *checker) fail(format string, args ...any) {
	ck.failed++
	if len(ck.messages) < 8 {
		ck.messages = append(ck.messages, fmt.Sprintf(format, args...))
	}
}

func (ck *checker) add(run func() (*server.AggregateResponse, error), merge func(*server.AggregateResponse)) {
	ck.jobs = append(ck.jobs, &job{run: run, merge: merge})
}

// finish runs the queued jobs on nClients goroutines, then merges them in
// order.
func (ck *checker) finish() {
	var next atomic.Int64
	parallel(func(int) {
		for i := int(next.Add(1)) - 1; i < len(ck.jobs); i = int(next.Add(1)) - 1 {
			j := ck.jobs[i]
			j.resp, j.err = j.run()
		}
	})
	for _, j := range ck.jobs {
		switch {
		case j.err != nil:
			ck.fail("%v", j.err)
		case j.merge != nil:
			j.merge(j.resp)
		}
	}
	ck.jobs = nil
}

// maxApproxSamples bounds the approx answers recomputed from scratch.
const maxApproxSamples = 6

// answer queues the check of one aggregate answer against the client's
// copy of the dataset: the hash it was served under and its generalized
// Kemeny score. A nil d is decoded from the inline request body.
func (ck *checker) answer(what string, body []byte, d *rankings.Dataset, request []byte, approx bool, merge func(*server.AggregateResponse)) {
	sample := approx && ck.sampled < maxApproxSamples
	if sample {
		ck.sampled++
	}
	ck.add(func() (*server.AggregateResponse, error) {
		if d == nil {
			var req server.AggregateRequest
			if err := json.Unmarshal(request, &req); err != nil {
				return nil, fmt.Errorf("%s: %v", what, err)
			}
			var err error
			if d, _, err = req.DatasetWire.Decode(); err != nil {
				return nil, fmt.Errorf("%s: %v", what, err)
			}
		}
		var resp server.AggregateResponse
		if err := json.Unmarshal(body, &resp); err != nil || resp.Consensus == nil {
			return nil, fmt.Errorf("%s: unreadable answer: %v", what, err)
		}
		if hash := ck.hashes.of(d); resp.DatasetHash != hash {
			return nil, fmt.Errorf("%s: answered for %s, expected %s", what, resp.DatasetHash, hash)
		}
		if resp.Approx != approx {
			return nil, fmt.Errorf("%s: approx=%v, expected %v", what, resp.Approx, approx)
		}
		if got := score(resp.Consensus, d); got != resp.Score {
			return nil, fmt.Errorf("%s: reported score %d, rankagg.Score gives %d", what, resp.Score, got)
		}
		if sample {
			fresh, err := rankagg.RunMatrixFree(context.Background(), resp.Algorithm, d)
			if err != nil || !fresh.Consensus.Equal(resp.Consensus) || fresh.Score != resp.Score {
				return nil, fmt.Errorf("%s: %s answer differs from a fresh rankagg.RunMatrixFree (%v)", what, resp.Algorithm, err)
			}
		}
		return &resp, nil
	}, merge)
}

// bound is the lower bound of a client's dataset slot state.
func (ck *checker) bound(c, slot int, d *rankings.Dataset) int64 {
	if d.N > 4096 {
		pc := ck.chains[[2]int{c, slot}]
		if pc == nil {
			pc = &pairCounts{}
			ck.chains[[2]int{c, slot}] = pc
		}
		return pc.bound(d)
	}
	lb, ok := ck.dense[d]
	if !ok {
		lb = lowerBound(d)
		ck.dense[d] = lb
	}
	return lb
}

// checkPhase queues the checks of every answer of the warm-up and the
// timed phase.
func (ck *checker) checkPhase(p *plan, res [nClients][]result) {
	for c := range res {
		for i := range res[c] {
			o, r := &p.ops[c][i], &res[c][i]
			what := fmt.Sprintf("client %d op %d (%s)", c, i, kindNames[o.kind])
			if r.err != nil {
				ck.fail("%s: %v", what, r.err)
				continue
			}
			if r.status != http.StatusOK {
				ck.fail("%s: status %d", what, r.status)
				continue
			}
			switch o.kind {
			case kindSolve, kindWarm:
				quality := i < p.warm[c]
				ck.answer(what, r.body, o.state, nil, o.approx, func(resp *server.AggregateResponse) {
					if !o.approx {
						ck.solves++
						ck.steps += resp.Stats.Moves + int64(resp.Stats.Iterations)
					}
					if o.kind == kindWarm && !o.approx {
						ck.warm++
						if resp.Stats.WarmStart {
							ck.warmStarted++
						}
					}
					if quality {
						ck.score += resp.Score
						ck.lbSum += ck.bound(c, o.slot, o.state)
						ck.answers++
					}
				})
			case kindHit:
				if r.digest != sha256.Sum256(consensusSegment(res[c][o.hitOf].body)) {
					ck.fail("%s: consensus differs from the answer of op %d", what, o.hitOf)
				}
			case kindCold:
				ck.answer(what, r.body, nil, o.body, o.approx, nil)
			case kindPatch:
				location := r.location
				ck.add(func() (*server.AggregateResponse, error) {
					if want := "/v1/datasets/" + ck.hashes.of(o.state); location != want {
						return nil, fmt.Errorf("%s: rotated to %q, expected the client-side hash %s", what, location, want)
					}
					return nil, nil
				}, nil)
			}
		}
	}
}

// gapPct is kemeny_gap_pct: how far the summed scores sit above the summed
// lower bounds, in percent.
func (ck *checker) gapPct() float64 {
	if ck.lbSum == 0 {
		return 0
	}
	return 100 * (float64(ck.score)/float64(ck.lbSum) - 1)
}

// selfTestBound checks the yardstick on the paper's §2.2 example
// R = {[{A},{D},{B,C}], [{A},{B,C},{D}], [{D},{A,C},{B}]}, whose optimal
// consensus [{A},{D},{B,C}] scores 5: the lower bound must not exceed 5
// and BioConsert must reach it.
func selfTestBound() error {
	d := rankings.NewDataset(4,
		rankings.New([]int{0}, []int{3}, []int{1, 2}),
		rankings.New([]int{0}, []int{1, 2}, []int{3}),
		rankings.New([]int{3}, []int{0, 2}, []int{1}))
	r, err := rankagg.Aggregate("BioConsert", d)
	if err != nil {
		return fmt.Errorf("self-test: %w", err)
	}
	if lb, score := lowerBound(d), rankagg.Score(r, d); lb > 5 || score != 5 {
		return fmt.Errorf("self-test on the §2.2 example: lower bound %d (want ≤ 5), BioConsert score %d (want 5)", lb, score)
	}
	return nil
}
