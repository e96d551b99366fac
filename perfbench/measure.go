package main

// One untraced HTTP run: set-up (repeated, median reported), an untimed
// warm-up, the timed phase (both clients in closed loop, then one op at a
// time) and the restart rounds, with counters snapshotted around each
// phase.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rankagg/internal/rankings"
	"rankagg/internal/server"
)

// measurement is what the untraced run observed.
type measurement struct {
	wl     *workload
	p      *plan
	hashes *hashMemo // content hashes of the client-side dataset states

	// Each set-up and restart round's wall and process CPU time.
	setupWall, setupCPU     []time.Duration
	restartWall, restartCPU []time.Duration

	puts []result // the last set-up's PUT answers, by pool index

	// res[c] holds client c's answers in sequence order: the warm-up's
	// first (p.warm[c] of them), then the timed phase's concurrent part,
	// then from serialFrom[c] on its serial part.
	res             [nClients][]result
	serialFrom      [nClients]int
	phase, phaseCPU time.Duration    // the concurrent part's wall and process CPU time
	serial          time.Duration    // the serial part's wall time
	probes          []time.Duration  // the speed probe's CPU times, all through the run
	counts          map[string]delta // per phase: set-up, timed, restart
	peakRSS         float64
	restarts        [][nClients][]restartOp
	// final is a durable server's last reopen, of the store the timed
	// phase left: it checks that every acknowledged PATCH survived, and
	// is not timed. Nil on an ephemeral server.
	final *[nClients][]restartOp
}

// restartOp is one dataset's first answer after a restart: one aggregate
// with a spec no cache holds. A durable server finds the dataset in its
// store; an ephemeral one starts empty, so the dataset is PUT again first.
type restartOp struct {
	put    []byte
	putRes result
	agg    op
	res    result
}

// restartAlgo is the restart aggregates' algorithm: solved fresh after
// every restart, so each one rebuilds its dataset's session.
func restartAlgo(wl *workload) string {
	if wl.mix.approx {
		return "lehmer"
	}
	return "KwikSortMin"
}

// measure runs set-up setups times, the timed phase and rounds restart
// rounds.
func measure(wl *workload, p *plan, root string, seconds float64, setups, rounds int) (*measurement, error) {
	m := &measurement{wl: wl, p: p, hashes: &hashMemo{m: map[*rankings.Dataset]string{}}, counts: map[string]delta{}}
	dirFor := func(rep int) string {
		if !wl.durable {
			return ""
		}
		return filepath.Join(root, fmt.Sprintf("store-%d", rep))
	}
	var h *harness
	for rep := 0; rep < setups; rep++ {
		if h != nil {
			if err := h.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dirFor(rep - 1)); err != nil {
				return nil, err
			}
		}
		// Every set-up and restart round starts from a collected heap. The
		// load generator holds hundreds of MB of prepared traffic, which
		// makes a collection far costlier than the server's own garbage
		// would; a short round must not pay for one that garbage made
		// before it fell due.
		runtime.GC()
		before := snapshot(nil)
		start, cpu := time.Now(), processCPU()
		var err error
		if h, err = startServer(dirFor(rep), wl.maxElements); err != nil {
			return nil, err
		}
		// Set-up and restart rounds send one request at a time: with the
		// clients' requests interleaved, how the server's worker tokens
		// fell between them moved a round's CPU time by ±20 %.
		m.puts = make([]result, len(p.pool))
		var buf bytes.Buffer
		for pi, body := range p.puts {
			r := &m.puts[pi]
			r.status, _, r.err = h.do(http.MethodPut, "/v1/datasets", body, &buf)
			r.body = bytes.Clone(buf.Bytes())
		}
		m.setupWall = append(m.setupWall, time.Since(start))
		m.setupCPU = append(m.setupCPU, processCPU()-cpu)
		m.probes = append(m.probes, probe())
		m.counts["setup"] = diff(before, snapshot(h))
	}

	var cur [nClients][]string
	for c := range cur {
		for _, pi := range p.slots[c] {
			cur[c] = append(cur[c], p.hashes[pi])
		}
		m.res[c] = make([]result, 0, len(p.ops[c]))
	}
	// Warm-up, untimed: each client runs its warm-up ops, so every run
	// answers the same ops for kemeny_gap_pct, the caches hold the same
	// entries when the clock starts, and the restart rounds reopen a state
	// the seed alone decides: how far the timed phase got must not change
	// how much a restart replays.
	h.runPhase(p, cur, &m.res, p.warm, time.Time{})
	warmDir := ""
	if wl.durable {
		// The clients are idle and the server writes nothing on its own, so
		// the directory is the store as a reopen would find it.
		warmDir = filepath.Join(root, "warm")
		if err := copyDir(dirFor(setups-1), warmDir); err != nil {
			return nil, err
		}
	}
	warmState, warmHashes := m.stateAfter(p.warm)

	// The timed phase: half of it with both clients in closed loop, for
	// the throughput and the CPU time an op costs under concurrency; the
	// other half with one op in flight at a time, so each op's CPU time is
	// its own.
	half := time.Duration(seconds / 2 * float64(time.Second))
	before := snapshot(h)
	start, cpu := time.Now(), processCPU()
	h.runPhase(p, cur, &m.res, allOps, start.Add(half))
	m.phase, m.phaseCPU = time.Since(start), processCPU()-cpu
	for c := range m.res {
		m.serialFrom[c] = len(m.res[c])
	}
	start = time.Now()
	h.runSerial(p, cur, &m.res, start.Add(half), &m.probes)
	m.serial = time.Since(start)
	m.counts["timed"] = diff(before, snapshot(h))
	if err := h.stop(); err != nil {
		return nil, err
	}
	h = nil

	// Restarts: each round starts a new server and answers one uncached
	// aggregate per dataset of the warm-up's state. A durable round opens
	// its own copy of the store the warm-up left, so the datasets come
	// back by store reopen and snapshot + log replay, and every round
	// reopens the same state: a round's own writes do not grow the next
	// one's work. An ephemeral round PUTs every dataset again first.
	dirs := make([]string, rounds)
	for round := range dirs {
		if wl.durable {
			dirs[round] = filepath.Join(root, fmt.Sprintf("restart-%d", round))
			if err := copyDir(warmDir, dirs[round]); err != nil {
				return nil, err
			}
		}
	}
	before = snapshot(nil)
	for _, dir := range dirs {
		if h != nil {
			if err := h.stop(); err != nil {
				return nil, err
			}
		}
		ops := m.restartOps(warmState, warmHashes)
		runtime.GC()
		start, cpu := time.Now(), processCPU()
		var err error
		if h, err = m.restart(dir, ops, warmHashes); err != nil {
			return nil, err
		}
		m.restartWall = append(m.restartWall, time.Since(start))
		m.restartCPU = append(m.restartCPU, processCPU()-cpu)
		m.probes = append(m.probes, probe())
		m.restarts = append(m.restarts, ops)
	}
	m.peakRSS = peakRSSMB()
	after := snapshot(h)
	rec := diff(before, after)
	rec.series = after.series // the restarted server's counters start at zero
	m.counts["restart"] = rec
	if err := h.stop(); err != nil {
		return nil, err
	}
	if !wl.durable {
		return m, nil
	}
	state, hashes := m.stateAfter(allOps)
	ops := m.restartOps(state, hashes)
	h, err := m.restart(dirFor(setups-1), ops, hashes)
	if err != nil {
		return nil, err
	}
	m.final = &ops
	return m, h.stop()
}

// restart starts a server on dir (ephemeral when "") and sends each
// client's restart ops in turn, with hashes holding its datasets' hashes.
func (m *measurement) restart(dir string, ops [nClients][]restartOp, hashes [nClients][]string) (*harness, error) {
	h, err := startServer(dir, m.wl.maxElements)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for c := range ops {
		for i := range ops[c] {
			ro := &ops[c][i]
			if ro.put != nil {
				r := &ro.putRes
				r.status, _, r.err = h.do(http.MethodPut, "/v1/datasets", ro.put, &buf)
				r.body = bytes.Clone(buf.Bytes())
			}
			h.exec(&ro.agg, hashes[c], &buf, &ro.res)
		}
	}
	return h, nil
}

// allOps caps no client's op count.
var allOps = [nClients]int{math.MaxInt, math.MaxInt}

// stateAfter is each client's copy of its datasets after the first n[c]
// of the ops it completed.
func (m *measurement) stateAfter(n [nClients]int) (state [nClients][]*rankings.Dataset, hashes [nClients][]string) {
	for c := range state {
		for _, pi := range m.p.slots[c] {
			state[c] = append(state[c], m.p.pool[pi])
			hashes[c] = append(hashes[c], m.p.hashes[pi])
		}
		for i := range min(n[c], len(m.res[c])) {
			if o := &m.p.ops[c][i]; o.kind == kindPatch {
				state[c][o.slot], hashes[c][o.slot] = o.state, m.hashes.of(o.state)
			}
		}
	}
	return state, hashes
}

func (m *measurement) restartOps(state [nClients][]*rankings.Dataset, hashes [nClients][]string) [nClients][]restartOp {
	var ops [nClients][]restartOp
	algo := restartAlgo(m.wl)
	for c := range ops {
		for i, d := range state[c] {
			ro := restartOp{agg: op{
				kind: kindSolve, slot: i, state: d, hash: hashes[c][i], approx: m.wl.mix.approx,
				body: aggregateBody(algo, int64(1)<<40),
			}}
			if !m.wl.durable {
				ro.put = putBody(d)
			}
			ops[c] = append(ops[c], ro)
		}
	}
	return ops
}

// attempted counts the requests whose outcome is judged: set-up PUTs,
// warm-up and timed ops, and restart ops.
func (m *measurement) attempted() int {
	n := len(m.puts)
	for c := range m.res {
		n += len(m.res[c])
	}
	for _, round := range m.reopens() {
		for c := range round {
			n += len(round[c])
		}
	}
	return n
}

// reopens is every restart round, the final reopen last.
func (m *measurement) reopens() [][nClients][]restartOp {
	if m.final == nil {
		return m.restarts
	}
	return append(m.restarts[:len(m.restarts):len(m.restarts)], *m.final)
}

// check runs every post-hoc check.
func (m *measurement) check(ck *checker) {
	for pi, r := range m.puts {
		checkPut(ck, fmt.Sprintf("set-up PUT %d", pi), r, m.p.hashes[pi])
	}
	// A client that ran its whole sequence may have stopped before the
	// deadline: the server outran the rate the sequences are sized for.
	for c := range m.res {
		if len(m.res[c]) == len(m.p.ops[c]) {
			ck.fail("client %d ran all %d ops of its sequence: the server is more than %d times faster than the %g ops/s per client the sequences are sized for; raise opsPerSecond",
				c, len(m.res[c]), opsMargin, m.wl.opsPerSecond)
		}
	}
	ck.checkPhase(m.p, m.res)
	// After each reopen of a durable store, which gets no upload, every
	// PATCH acknowledged before it must be visible: the aggregate is served
	// under the client-side hash of the state the store was left in (the
	// warm-up's for the timed rounds, the timed phase's for the final
	// reopen) and scores right on it. An ephemeral server got each dataset
	// PUT again, so there this checks only the PUT and the answer.
	for round, ops := range m.reopens() {
		for c := range ops {
			for i := range ops[c] {
				ro := &ops[c][i]
				what := fmt.Sprintf("restart round %d client %d dataset %d", round, c, i)
				if ro.put != nil && !checkPut(ck, what+" PUT", ro.putRes, ro.agg.hash) {
					continue
				}
				if ro.res.err != nil || ro.res.status != http.StatusOK {
					ck.fail("%s: status %d (%v)", what, ro.res.status, ro.res.err)
					continue
				}
				ck.answer(what, ro.res.body, ro.agg.state, nil, ro.agg.approx, nil)
			}
		}
	}
	ck.finish()
}

func checkPut(ck *checker, what string, r result, hash string) bool {
	var resp server.DatasetCreateResponse
	if r.err != nil || r.status != http.StatusCreated {
		ck.fail("%s: status %d (%v)", what, r.status, r.err)
		return false
	}
	if err := json.Unmarshal(r.body, &resp); err != nil || resp.DatasetHash != hash {
		ck.fail("%s: created %q (%v), expected %s", what, resp.DatasetHash, err, hash)
		return false
	}
	return true
}

// classTimes is one part of the timed phase's op times in ms, by class.
type classTimes struct {
	wall, cpu [numKinds][]float64
	all       []float64 // every op's wall time
}

// times collects the op times of the timed phase's concurrent part, or
// of its serial part.
func (m *measurement) times(serial bool) classTimes {
	var t classTimes
	for c := range m.res {
		lo, hi := m.p.warm[c], m.serialFrom[c]
		if serial {
			lo, hi = hi, len(m.res[c])
		}
		for i := lo; i < hi; i++ {
			r, k := &m.res[c][i], m.p.ops[c][i].kind
			t.wall[k] = append(t.wall[k], msOf(r.dur))
			t.cpu[k] = append(t.cpu[k], msOf(r.cpu))
			t.all = append(t.all, msOf(r.dur))
		}
	}
	return t
}

// ops counts the timed phase's ops.
func (m *measurement) ops() int {
	n := 0
	for c := range m.res {
		n += len(m.res[c]) - m.p.warm[c]
	}
	return n
}

// concurrentOps counts the ops of the timed phase's concurrent part.
func (m *measurement) concurrentOps() int {
	n := 0
	for c, k := range m.serialFrom {
		n += k - m.p.warm[c]
	}
	return n
}

// endToEnd adds the end-to-end metrics. Every time among them is process
// CPU time, which the hypervisor's steal does not inflate, scaled to the
// reference host speed; the wall-clock figures are in the report.
func (m *measurement) endToEnd(out *outcome, ck *checker) {
	scale := m.probeScale()
	out.add("setup_s", "s", scale*median(seconds(m.setupCPU)))
	out.add("cpu_ms_per_op", "ms", scale*ratio(msOf(m.phaseCPU), float64(m.concurrentOps())))
	for k, name := range kindNames {
		out.add(name+"_cpu_ms", "ms", scale*m.classCPU(kind(k)))
	}
	out.add("restart_cpu_ms", "ms", scale*1e3*median(seconds(m.restartCPU)))
	out.add("kemeny_gap_pct", "%", ck.gapPct())
}

// probeRef is the speed probe's CPU time on the machine the benchmark was
// tuned on, with its host quiet.
const probeRef = 2 * time.Millisecond

// probeScale is probeRef over the run's median probe time: the factor
// that brings the run's CPU times to the host speed at which the probe
// takes probeRef. Between two sets of runs an hour apart, the same work
// cost half the CPU time, with no steal to show for it.
func (m *measurement) probeScale() float64 {
	return ratio(msOf(probeRef), median(msAll(m.probes)))
}

// group is an (algorithm, dataset) pair: client c's slot, or -1 for an
// inline op.
type group struct {
	algo    string
	c, slot int
}

// classCPU is class k's figure: the mean over its serial ops' (algorithm,
// dataset) groups of each group's median CPU time. A class mixes
// algorithms, and datasets of two families, of very different cost; the
// median of all its ops sits on the edge between two of them, where a few
// more draws of one move it far (exact-mix's warm median jumped between
// 2.6 and 3.7 ms from seed to seed).
func (m *measurement) classCPU(k kind) float64 {
	by := map[group][]float64{}
	for c := range m.res {
		for i := m.serialFrom[c]; i < len(m.res[c]); i++ {
			if o := &m.p.ops[c][i]; o.kind == k {
				g := group{o.algo, c, o.slot}
				by[g] = append(by[g], msOf(m.res[c][i].cpu))
			}
		}
	}
	var sum float64
	for _, xs := range by {
		sum += median(xs)
	}
	return ratio(sum, float64(len(by)))
}

// report is the diagnostic line printed before the result.
func (m *measurement) report(cfg config, p *plan, ck *checker, root string) map[string]any {
	classes := func(xs [numKinds][]float64, all []float64) map[string]any {
		out := map[string]any{}
		if all != nil {
			out["all"] = summary(all)
		}
		for k, v := range xs {
			out[kindNames[k]] = summary(v)
		}
		return out
	}
	conc, serial := m.times(false), m.times(true)
	phases := map[string]any{}
	for name, d := range m.counts {
		phases[name] = map[string]any{"metrics": nonZero(d.series), "proc_io": nonZero(d.io), "cpu_s": nonZero(d.cpu), "runtime": nonZero(d.runtime)}
	}
	return map[string]any{
		"workload":  cfg.workload,
		"seed":      cfg.seed,
		"seconds":   cfg.seconds,
		"op_digest": p.digest,
		"clients":   nClients,
		"loop":      "closed",
		"concurrent": map[string]any{
			"wall_s": m.phase.Seconds(), "cpu_s": m.phaseCPU.Seconds(), "ops": m.concurrentOps(),
			"throughput_ops_s": ratio(float64(m.concurrentOps()), m.phase.Seconds()),
			"latency_ms":       classes(conc.wall, conc.all),
		},
		"serial": map[string]any{
			"wall_s": m.serial.Seconds(), "ops": m.ops() - m.concurrentOps(),
			"latency_ms": classes(serial.wall, serial.all),
			"cpu_ms":     classes(serial.cpu, nil),
		},
		"setup_s":       map[string]any{"wall": seconds(m.setupWall), "cpu": seconds(m.setupCPU)},
		"restart_s":     map[string]any{"wall": seconds(m.restartWall), "cpu": seconds(m.restartCPU)},
		"probe_ms":      summary(msAll(m.probes)),
		"probe_scale":   m.probeScale(),
		"quality":       map[string]any{"answers": ck.answers, "score_sum": ck.score, "lower_bound_sum": ck.lbSum},
		"approx_sample": ck.sampled,
		"failures":      ck.messages,
		"phases":        phases,
		"peak_rss_mb":   m.peakRSS,
		"env":           environment(root),
	}
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msOf(d)
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func nonZero(x map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range x {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*p/100+0.999999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// summary is a class's latency figures with their sample count.
func summary(xs []float64) map[string]any {
	return map[string]any{"n": len(xs), "mean": mean(xs), "p50": percentile(xs, 50), "p90": percentile(xs, 90), "p95": percentile(xs, 95), "p99": percentile(xs, 99), "max": percentile(xs, 100)}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// copyDir copies the regular files and directories below src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}
