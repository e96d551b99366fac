package main

// Per-layer metrics: times from the traced replay's spans, counts from the
// untraced HTTP run's counters.

import (
	"fmt"
	"os"
	"time"
)

// traceResult holds the replay run with spans and the one without; each
// one's wall time runs to the end of the timed phase's concurrent half.
type traceResult struct {
	on, off *replayRun
}

// traceRun replays the measured run twice in fresh state: first without
// spans up to the end of the timed phase's concurrent half, then all of
// it with spans.
func traceRun(wl *workload, p *plan, m *measurement, dir string) (*traceResult, error) {
	off, err := replay(wl, p, m, dir+"-off", false)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir + "-off"); err != nil {
		return nil, err
	}
	on, err := replay(wl, p, m, dir+"-on", true)
	if err != nil {
		return nil, err
	}
	return &traceResult{on: on, off: off}, os.RemoveAll(dir + "-on")
}

// spanStats summarizes the traced replay.
type spanStats struct {
	calls map[string]*callStat // by span name; a solve also by its label
	// self is each layer's self time over the timed phase's ops, and
	// selfCalls the number of its spans there.
	self      [numLayers]time.Duration
	selfCalls [numLayers]int
	// residual sums, over the timed phase's ops, the HTTP latency minus
	// the replay's time for the same op.
	residual  time.Duration
	residualN int
}

type callStat struct {
	n     int
	total time.Duration
}

func (tr *traceResult) stats(m *measurement) *spanStats {
	st := &spanStats{calls: map[string]*callStat{}}
	for c, t := range tr.on.tracers {
		child := make([]time.Duration, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			d := s.end - s.start
			key := s.name
			if s.name == "algo.solve" {
				key += "." + s.label
			}
			cs := st.calls[key]
			if cs == nil {
				cs = &callStat{}
				st.calls[key] = cs
			}
			cs.n++
			cs.total += d
			if s.phase != phaseTimed {
				continue
			}
			st.self[s.layer] += d - child[i]
			st.selfCalls[s.layer]++
			if s.name == "op" {
				st.residual += m.res[c][s.op].dur - d
				st.residualN++
			}
		}
	}
	return st
}

// meanMS is the mean duration of the named spans in ms (0 when none).
func (st *spanStats) meanMS(names ...string) float64 {
	var n int
	var total time.Duration
	for _, name := range names {
		if cs := st.calls[name]; cs != nil {
			n += cs.n
			total += cs.total
		}
	}
	return ratio(float64(total)/1e6, float64(n))
}

func (st *spanStats) count(name string) float64 {
	if cs := st.calls[name]; cs != nil {
		return float64(cs.n)
	}
	return 0
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer adds the per-layer metrics.
func (m *measurement) perLayer(out *outcome, ck *checker, tr *traceResult) {
	st := tr.stats(m)
	timed := m.counts["timed"]
	s, g := timed.series, timed.gauges
	ops := float64(m.ops())
	var bytesIn, bytesOut, userBytes, patches float64
	for c := range m.res {
		for i := m.p.warm[c]; i < len(m.res[c]); i++ {
			r := &m.res[c][i]
			bytesIn += float64(r.bytesIn)
			bytesOut += float64(r.bytesOut)
			o := &m.p.ops[c][i]
			userBytes += float64(o.userBytes)
			if o.kind == kindPatch {
				patches++
			}
		}
	}
	var live float64
	if m.wl.durable {
		state, _ := m.stateAfter(allOps)
		for c := range state {
			for _, d := range state[c] {
				live += float64(len(putBody(d)))
			}
		}
	}
	hitRatio := func(hits, misses string) float64 { return ratio(s[hits], s[hits]+s[misses]) }

	out.add("server.decode_ms", "ms", st.meanMS("server.decode"))
	out.add("server.encode_ms", "ms", st.meanMS("server.encode"))
	out.add("server.bytes_in", "B", ratio(bytesIn, ops))
	out.add("server.bytes_out", "B", ratio(bytesOut, ops))
	out.add("server.residual_ms", "ms", ratio(float64(st.residual)/1e6, float64(st.residualN)))

	out.add("rankings.decode_ms", "ms", st.meanMS("rankings.decode"))
	out.add("rankings.hash_ms", "ms", st.meanMS("rankings.hash"))
	out.add("rankings.hash_calls_per_op", "count", ratio(st.count("rankings.hash"), ops))

	out.add("cache.consensus_hit_ratio", "ratio", hitRatio("rankagg_consensus_hits_total", "rankagg_consensus_misses_total"))
	out.add("cache.session_hit_ratio", "ratio", hitRatio("rankagg_cache_hits_total", "rankagg_cache_misses_total"))
	out.add("cache.session_evictions_per_op", "count", ratio(s["rankagg_cache_evictions_total"], ops))
	out.add("cache.approx_hit_ratio", "ratio", hitRatio("rankagg_approx_cache_hits_total", "rankagg_approx_cache_misses_total"))
	out.add("cache.lookup_ms", "ms", ratio(float64(st.self[layerCache])/1e6, float64(st.selfCalls[layerCache])))

	out.add("rankagg.session_delta_ms", "ms", st.meanMS("rankagg.session_delta"))
	out.add("rankagg.approx_delta_ms", "ms", st.meanMS("rankagg.approx_delta"))

	out.add("kendall.build_ms", "ms", st.meanMS("kendall.build"))
	out.add("kendall.builds_per_op", "count", ratio(s["rankagg_cache_matrix_builds_total"], ops))
	out.add("kendall.matrix_bytes", "B", g["rankagg_cache_bytes"])

	for _, a := range exactAlgos {
		out.add("algo.solve_ms."+a, "ms", st.meanMS("algo.solve."+a))
	}
	out.add("algo.warm_solve_ms", "ms", st.meanMS("algo.solve.warm"))
	out.add("algo.iterations_per_solve", "count", ratio(float64(ck.steps), float64(ck.solves)))
	out.add("algo.warm_start_ratio", "ratio", ratio(float64(ck.warmStarted), float64(ck.warm)))

	out.add("approx.run_ms", "ms", st.meanMS("approx.run"))
	out.add("approx.rerun_ms", "ms", st.meanMS("approx.rerun"))
	out.add("approx.state_bytes", "B", g["rankagg_approx_cache_bytes"])

	out.add("store.append_ms", "ms", st.meanMS("store.append"))
	out.add("store.save_consensus_ms", "ms", st.meanMS("store.save_consensus"))
	out.add("store.rebuild_ms", "ms", st.meanMS("store.rebuild"))
	out.add("store.open_ms", "ms", st.meanMS("store.open"))
	out.add("store.create_ms", "ms", st.meanMS("store.create"))
	out.add("store.replays_per_op", "count", ratio(s["rankagg_store_replays_total"], ops))
	out.add("store.compactions_per_patch", "count", ratio(s["rankagg_store_compactions_total"], patches))
	out.add("store.write_bytes_per_op", "B", ratio(timed.io["write_bytes"], ops))
	out.add("store.write_amplification", "ratio", ratio(timed.io["write_bytes"], userBytes))
	out.add("store.syscw_per_op", "count", ratio(timed.io["syscw"], ops))
	out.add("store.bytes_per_user_byte", "ratio", ratio(g["rankagg_store_bytes"], live))

	out.add("runtime.alloc_bytes_per_op", "B", ratio(timed.runtime["/gc/heap/allocs:bytes"], ops))
	out.add("runtime.gc_cycles_per_op", "count", ratio(timed.runtime["/gc/cycles/total:gc-cycles"], ops))
	out.add("runtime.gc_pause_ms", "ms", timed.runtime["pause_ns"]/1e6)
	out.add("runtime.peak_rss_mb", "MB", m.peakRSS)

	for l := layerOp; l < numLayers; l++ {
		out.add("self."+layerNames[l]+"_ms_per_op", "ms", ratio(float64(st.self[l])/1e6, ops))
	}
	out.add("trace.replay_ms", "ms", float64(tr.off.wall)/1e6)
	out.add("trace.overhead_ms", "ms", float64(tr.on.wall-tr.off.wall)/1e6)
	out.report["trace"] = tr.report(st)
	// A replay that could not follow the run makes its numbers meaningless.
	if errs := tr.on.errs + tr.off.errs; errs > 0 {
		out.correct = false
		out.failures = append(out.failures, fmt.Sprintf("traced replay: %d errors, first: %v", errs, firstErr(tr)))
	}
}

func firstErr(tr *traceResult) error {
	if tr.on.first != nil {
		return tr.on.first
	}
	return tr.off.first
}

// report summarizes the replays for the report line.
func (tr *traceResult) report(st *spanStats) map[string]any {
	calls := map[string]any{}
	for name, cs := range st.calls {
		calls[name] = map[string]any{"n": cs.n, "mean_ms": float64(cs.total) / 1e6 / float64(cs.n)}
	}
	spans := 0
	for _, t := range tr.on.tracers {
		spans += len(t.spans)
	}
	rep := map[string]any{
		"spans":      spans,
		"wall_on_s":  tr.on.wall.Seconds(),
		"wall_off_s": tr.off.wall.Seconds(),
		"errors":     tr.on.errs + tr.off.errs,
		"calls":      calls,
	}
	for _, rr := range []*replayRun{tr.on, tr.off} {
		if rr.first != nil {
			rep["first_error"] = rr.first.Error()
		}
	}
	return rep
}
