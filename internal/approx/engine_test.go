package approx

import (
	"context"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"rankagg/internal/core"
	"rankagg/internal/gen"
	"rankagg/internal/rankings"
)

// AggregateFullUniverse is the pre-truncation reference implementation:
// every ranking — complete or not — pays a dense O(n log n) Fenwick pass
// and the median sorts all m coordinates per element, sequentially on one
// core. It is kept as the oracle the truncated, parallel, incremental
// engine is pinned against.
func AggregateFullUniverse(d *rankings.Dataset) (*rankings.Ranking, error) {
	if err := CheckInput(d); err != nil {
		return nil, err
	}
	n, m := d.N, d.M()
	// codes[e*m+j] is ranking j's coordinate for element e (column-major by
	// element, so the per-element median reads one contiguous run).
	codes := make([]int32, n*m)
	f := newFenwick(n)
	col := make([]int32, n)
	for j, r := range d.Rankings {
		codeRanking(r, n, f, col)
		for e, c := range col {
			codes[e*m+j] = c
		}
	}
	med := make([]int32, n)
	tmp := make([]int32, m)
	for e := 0; e < n; e++ {
		copy(tmp, codes[e*m:(e+1)*m])
		slices.Sort(tmp)
		// Lower median: any order statistic of values in [0, e] stays in
		// [0, e], so the vector remains a valid Lehmer code.
		med[e] = tmp[(m-1)/2]
	}
	return rankings.FromPermutation(decode(med, f)), nil
}

// scoreFullUniverse is the pre-truncation batch accumulation — every
// ranking pays an O(n) absent-element sweep — kept as the oracle the
// ScoreState decomposition is pinned against in tests.
func scoreFullUniverse(d *rankings.Dataset, optimistic bool) (*rankings.Ranking, error) {
	if err := CheckInput(d); err != nil {
		return nil, err
	}
	n := d.N
	total := make([]int64, n)
	seen := make([]bool, n)
	for _, r := range d.Rankings {
		for i := range seen {
			seen[i] = false
		}
		p := 1
		for _, b := range r.Buckets {
			dr := int64(2*p + len(b) - 1)
			for _, e := range b {
				total[e] += dr
				seen[e] = true
			}
			p += len(b)
		}
		if l := p - 1; l < n {
			absent := int64(n + l + 1)
			if optimistic {
				absent = int64(2 * (l + 1))
			}
			for e, ok := range seen {
				if !ok {
					total[e] += absent
				}
			}
		}
	}
	return scoreBuckets(total), nil
}

// truncate keeps the best keep elements of r (whole buckets, splitting the
// boundary bucket), producing the top-k regime the compact encoder exists
// for.
func truncate(r *rankings.Ranking, keep int) *rankings.Ranking {
	out := &rankings.Ranking{}
	for _, b := range r.Buckets {
		if keep <= 0 {
			break
		}
		if len(b) <= keep {
			out.Buckets = append(out.Buckets, append([]int(nil), b...))
			keep -= len(b)
			continue
		}
		out.Buckets = append(out.Buckets, append([]int(nil), b[:keep]...))
		keep = 0
	}
	return out
}

// noisyDatasets spans the internal/gen noise models plus the truncation
// and tie regimes the compact encoder must survive: complete permutations,
// concentrated and dispersed noise, heavy ties, partial overlap, and
// genuine top-k lists.
func noisyDatasets(t *testing.T) map[string]*rankings.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	sets := map[string]*rankings.Dataset{
		"uniform":      gen.UniformDataset(rng, 8, 40),
		"mallows":      gen.MallowsDataset(rng, 9, 35, 0.3),
		"plackettluce": gen.PlackettLuceDataset(rng, 7, 30, 0.85),
		"markov":       gen.MarkovDataset(rng, gen.UniformRanking(rng, 25), 25, 8, 30),
	}
	// Heavily tied: quantize Mallows permutations to a handful of levels.
	tied := make([]*rankings.Ranking, 8)
	base := gen.MallowsDataset(rng, 8, 30, 0.4)
	for i, r := range base.Rankings {
		tied[i] = gen.TieByQuantization(rng, r, 4, 0.2)
	}
	sets["quantized-ties"] = rankings.NewDataset(30, tied...)
	// Partial overlap: random element drop per ranking.
	partial := make([]*rankings.Ranking, 10)
	for i := range partial {
		partial[i] = randomTied(rng, 32, 0.45)
	}
	sets["partial-overlap"] = rankings.NewDataset(32, partial...)
	// Top-k lists: short strict prefixes of Mallows permutations.
	top := make([]*rankings.Ranking, 12)
	tbase := gen.MallowsDataset(rng, 12, 50, 0.25)
	for i, r := range tbase.Rankings {
		top[i] = truncate(r, 6+rng.Intn(5))
	}
	sets["toplists"] = rankings.NewDataset(50, top...)
	return sets
}

// TestCompactEncodeMatchesOracle pins the L-compacted Fenwick encoder
// byte-identical to both the O(n²) naive oracle and the full-universe
// Fenwick pass, across every noise model: for present elements the
// scattered compact codes must equal the dense vector exactly, and absent
// elements are 0 on both paths.
func TestCompactEncodeMatchesOracle(t *testing.T) {
	for name, d := range noisyDatasets(t) {
		enc := newEncoder(d.N)
		dense := make([]int32, d.N)
		for j, r := range d.Rankings {
			codeRanking(r, d.N, enc.f, dense)
			naive := codeNaive(r, d.N)
			if !slices.Equal(dense, naive) {
				t.Fatalf("%s ranking %d: codeRanking diverges from the naive oracle", name, j)
			}
			elems, codes := enc.encodeCompact(r)
			if len(elems) != r.Len() {
				t.Fatalf("%s ranking %d: compact encoder emitted %d coordinates for a length-%d list",
					name, j, len(elems), r.Len())
			}
			scattered := make([]int32, d.N)
			for i, e := range elems {
				scattered[e] = codes[i]
			}
			if !slices.Equal(scattered, dense) {
				t.Errorf("%s ranking %d: compact codes diverge from the full-universe encoder\ncompact: %v\ndense:   %v",
					name, j, scattered, dense)
			}
		}
	}
}

// TestBuildLehmerMatchesFullUniverse pins the assembled state — compact
// encodes, shared-backing multisets, implicit-zero median — to the dense
// sequential reference on every noise model, and on the top-k lists of the
// root ApproxSession tests (same seeds and shapes: 9 lists over 40 elements
// with lengths 8–16, 40 over 30 with lengths 10–20), which compare against
// a cold Lehmer run.
func TestBuildLehmerMatchesFullUniverse(t *testing.T) {
	sets := noisyDatasets(t)
	for name, c := range map[string]struct {
		seed             int64
		m, n, minL, maxL int
	}{
		"session-toplists-9x40":  {301, 9, 40, 8, 16},
		"session-toplists-40x30": {304, 40, 30, 10, 20},
	} {
		rng := rand.New(rand.NewSource(c.seed))
		top := gen.MallowsDataset(rng, c.m, c.n, 0.3).Rankings
		for i, r := range top {
			top[i] = truncate(r, c.minL+rng.Intn(c.maxL-c.minL+1))
		}
		sets[name] = rankings.NewDataset(c.n, top...)
	}
	for name, d := range sets {
		want, err := AggregateFullUniverse(d)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		st, err := BuildLehmer(context.Background(), d, 3)
		if err != nil {
			t.Fatalf("%s: BuildLehmer: %v", name, err)
		}
		if got := st.Consensus(); !got.Equal(want) {
			t.Errorf("%s: state consensus %s != full-universe %s", name, got, want)
		}
	}
}

// TestWorkerInvariance: the consensus (and the median vector itself) must
// be byte-identical for any worker count, for both engines.
func TestWorkerInvariance(t *testing.T) {
	ctx := context.Background()
	for name, d := range noisyDatasets(t) {
		ref, err := BuildLehmer(ctx, d, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		refMed := ref.Median()
		for _, w := range []int{2, 3, 8, 64} {
			st, err := BuildLehmer(ctx, d, w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if !slices.Equal(st.Median(), refMed) {
				t.Errorf("%s: median at %d workers diverges from 1 worker", name, w)
			}
			if !st.Consensus().Equal(ref.Consensus()) {
				t.Errorf("%s: consensus at %d workers diverges from 1 worker", name, w)
			}
		}
		for _, opt := range []bool{false, true} {
			sref, err := BuildScore(ctx, d, opt, 1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, w := range []int{2, 5, 16} {
				sst, err := BuildScore(ctx, d, opt, w)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, w, err)
				}
				if !sst.Consensus().Equal(sref.Consensus()) {
					t.Errorf("%s optimistic=%v: score consensus at %d workers diverges", name, opt, w)
				}
			}
		}
	}
}

// TestScoreStateMatchesBatchOracle pins the base+adj decomposition against
// the batch accumulation with its O(n) absent sweeps, both variants.
func TestScoreStateMatchesBatchOracle(t *testing.T) {
	for name, d := range noisyDatasets(t) {
		for _, opt := range []bool{false, true} {
			want, err := scoreFullUniverse(d, opt)
			if err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			st, err := BuildScore(context.Background(), d, opt, 4)
			if err != nil {
				t.Fatalf("%s: BuildScore: %v", name, err)
			}
			if got := st.Consensus(); !got.Equal(want) {
				t.Errorf("%s optimistic=%v: state consensus diverges from batch oracle", name, opt)
			}
		}
	}
}

// TestLehmerStateDelta drives a random add/remove history through the
// incremental multisets and checks, after every step, that the state's
// consensus equals a cold full-universe aggregation of the current
// dataset — the maintained state never drifts.
func TestLehmerStateDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 28
	cur := []*rankings.Ranking{randomTied(rng, n, 0.3), randomTied(rng, n, 0)}
	d := rankings.NewDataset(n, cur...)
	st, err := BuildLehmer(context.Background(), d, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildScore(context.Background(), d, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 60; step++ {
		if len(cur) > 1 && rng.Intn(3) == 0 {
			i := rng.Intn(len(cur))
			r := cur[i]
			cur = append(cur[:i:i], cur[i+1:]...)
			if err := st.Remove(r); err != nil {
				t.Fatalf("step %d: remove: %v", step, err)
			}
			sc.Remove(r)
		} else {
			r := randomTied(rng, n, rng.Float64()*0.6)
			cur = append(cur, r)
			st.Add(r)
			sc.Add(r)
		}
		d := rankings.NewDataset(n, cur...)
		want, err := AggregateFullUniverse(d)
		if err != nil {
			t.Fatalf("step %d: oracle: %v", step, err)
		}
		if st.M() != len(cur) {
			t.Fatalf("step %d: state m=%d, dataset m=%d", step, st.M(), len(cur))
		}
		if got := st.Consensus(); !got.Equal(want) {
			t.Fatalf("step %d: incremental consensus %s != cold %s", step, got, want)
		}
		wantScore, err := scoreFullUniverse(d, false)
		if err != nil {
			t.Fatalf("step %d: score oracle: %v", step, err)
		}
		if got := sc.Consensus(); !got.Equal(wantScore) {
			t.Fatalf("step %d: incremental score consensus diverges from cold", step)
		}
	}
}

// TestLehmerStateRemoveDiverged: removing a ranking that was never added
// reports the divergence instead of corrupting silently. (Coordinate 0 of
// element 0 is always "present" via another ranking only if codes match —
// use a ranking whose codes cannot all be found.)
func TestLehmerStateRemoveDiverged(t *testing.T) {
	d := rankings.NewDataset(4,
		rankings.FromPermutation([]int{0, 1, 2, 3}),
		rankings.FromPermutation([]int{0, 1, 3, 2}),
	)
	st, err := BuildLehmer(context.Background(), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The reversed permutation has coordinates no identity-ish ranking
	// produced; Remove must notice.
	if err := st.Remove(rankings.FromPermutation([]int{3, 2, 1, 0})); err == nil {
		t.Fatal("removing a never-added ranking succeeded")
	}
}

// countingCtx flips to cancelled after a fixed number of Err polls —
// deterministic mid-encode cancellation. The counter is atomic: parallel
// encode workers poll concurrently.
type countingCtx struct {
	context.Context
	polls atomic.Int64
	limit int64
}

func (c *countingCtx) Err() error {
	if c.polls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// TestEncodeCancellation: a context cancelled mid-encode aborts the pass
// with context.Canceled after a bounded number of further rankings, for
// both engines, sequential and parallel.
func TestEncodeCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := gen.UniformDataset(rng, 40, 30)
	for _, workers := range []int{1, 4} {
		ctx := &countingCtx{Context: context.Background(), limit: 5}
		if _, err := BuildLehmer(ctx, d, workers); err != context.Canceled {
			t.Errorf("BuildLehmer workers=%d: err=%v, want context.Canceled", workers, err)
		}
		ctx = &countingCtx{Context: context.Background(), limit: 5}
		if _, err := BuildScore(ctx, d, false, workers); err != context.Canceled {
			t.Errorf("BuildScore workers=%d: err=%v, want context.Canceled", workers, err)
		}
	}
	// And through the registry entry point core.Run uses.
	ctx := &countingCtx{Context: context.Background(), limit: 5}
	if _, err := core.Run(ctx, Lehmer{}, d, core.RunOptions{Workers: 2}); err != context.Canceled {
		t.Errorf("core.Run(Lehmer): err=%v, want context.Canceled", err)
	}
}

// TestAggregateCtxDeadlineCompletes: an expired deadline does not truncate
// the bounded encode — the run completes with the full consensus, the
// matrix-free analogue of the exact tier's keep-the-best deadline policy.
func TestAggregateCtxDeadlineCompletes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := gen.UniformDataset(rng, 10, 20)
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done() // deadline definitely expired
	rr, err := core.Run(ctx, Lehmer{}, d, core.RunOptions{Workers: 2})
	if err != nil {
		t.Fatalf("expired deadline errored the bounded encode: %v", err)
	}
	want, _ := AggregateFullUniverse(d)
	if !rr.Consensus.Equal(want) || rr.DeadlineHit {
		t.Errorf("deadline run: consensus equal=%v deadlineHit=%v, want full result, no flag",
			rr.Consensus.Equal(want), rr.DeadlineHit)
	}
}
