package rankagg_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"rankagg"
	"rankagg/internal/gen"
	"rankagg/internal/kendall"
)

// topList cuts a permutation ranking down to its best keep elements — the
// shape top-k lists arrive in.
func topList(r *rankagg.Ranking, keep int) *rankagg.Ranking {
	out := &rankagg.Ranking{}
	for _, b := range r.Buckets {
		if keep <= 0 {
			break
		}
		n := len(b)
		if n > keep {
			n = keep
		}
		out.Buckets = append(out.Buckets, append([]int(nil), b[:n]...))
		keep -= n
	}
	return out
}

// topListDataset builds an incomplete dataset of m top-k lists over n
// elements with list lengths in [lo, hi].
func topListDataset(rng *rand.Rand, m, n, lo, hi int) *rankagg.Dataset {
	full := gen.MallowsDataset(rng, m, n, 0.3)
	rks := make([]*rankagg.Ranking, m)
	for i, r := range full.Rankings {
		rks[i] = topList(r, lo+rng.Intn(hi-lo+1))
	}
	return &rankagg.Dataset{N: n, Rankings: rks}
}

// TestApproxSessionToplists: an ApproxSession aggregates an incomplete
// dataset directly, every result carries Approx with an exact score, and
// the lehmer consensus matches a cold Lehmer aggregation (this dataset is
// also one of TestBuildLehmerMatchesFullUniverse's inputs, so it is pinned
// to the full-universe oracle there).
func TestApproxSessionToplists(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	d := topListDataset(rng, 9, 40, 8, 16)
	as, err := rankagg.NewApproxSession(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lehmer", "avgrank", "scores"} {
		res, err := as.Run(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Approx {
			t.Errorf("%s: Result.Approx not set", name)
		}
		if want := rankagg.Score(res.Consensus, d); res.Score != want {
			t.Errorf("%s: Score %d, recomputed %d", name, res.Score, want)
		}
		// The stateful path must agree with the stateless entry point.
		ref, err := rankagg.RunMatrixFree(context.Background(), name, d)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Approx || !res.Consensus.Equal(ref.Consensus) {
			t.Errorf("%s: session consensus %v, RunMatrixFree %v (approx %v)", name, res.Consensus, ref.Consensus, ref.Approx)
		}
	}
	oracle, err := rankagg.Aggregate("lehmer", d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := as.Run(context.Background(), "lehmer")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consensus.Equal(oracle) {
		t.Errorf("lehmer consensus %v, cold Lehmer %v", res.Consensus, oracle)
	}
	if as.StateBytes() <= 0 {
		t.Error("StateBytes not positive after runs")
	}
}

// TestApproxSessionDelta drives a random add/remove history through the
// incremental state and pins every post-delta consensus against a cold
// rebuild of the then-current dataset, and every score against Σ
// kendall.DistNaive over it — the state must never drift, and warm scores
// must stay exact whether or not the consensus moved.
func TestApproxSessionDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	n := 24
	d := topListDataset(rng, 8, n, 5, 12)
	as, err := rankagg.NewApproxSession(d, rankagg.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	algos := []string{"lehmer", "avgrank", "scores"}
	// Build all three states up front so every later delta exercises the
	// incremental update path rather than a lazy rebuild.
	for _, name := range algos {
		if _, err := as.Run(context.Background(), name); err != nil {
			t.Fatal(err)
		}
	}
	hash := as.Hash()
	for step := 0; step < 30; step++ {
		cur := as.Dataset()
		if rng.Intn(3) > 0 || len(cur.Rankings) <= 2 {
			r := topList(gen.MallowsDataset(rng, 1, n, 0.4).Rankings[0], 3+rng.Intn(n-3))
			if err := as.AddRanking(r); err != nil {
				t.Fatalf("step %d: AddRanking: %v", step, err)
			}
		} else {
			victim := cur.Rankings[rng.Intn(len(cur.Rankings))]
			if err := as.RemoveRanking(victim.Clone()); err != nil {
				t.Fatalf("step %d: RemoveRanking: %v", step, err)
			}
		}
		if h := as.Hash(); h == hash {
			t.Fatalf("step %d: hash did not rotate", step)
		} else {
			hash = h
		}
		snap := as.Dataset()
		for _, name := range algos {
			res, err := as.Run(context.Background(), name)
			if err != nil {
				t.Fatalf("step %d %s: %v", step, name, err)
			}
			ref, err := rankagg.RunMatrixFree(context.Background(), name, snap)
			if err != nil {
				t.Fatalf("step %d %s: cold rebuild: %v", step, name, err)
			}
			if !res.Consensus.Equal(ref.Consensus) {
				t.Fatalf("step %d %s: incremental consensus %v, cold %v", step, name, res.Consensus, ref.Consensus)
			}
			// The reference is the O(n²) pair walk, which shares no code
			// with the merge-sort kernel behind both the warm-score shifts
			// and rankagg.Score.
			var want int64
			for _, r := range snap.Rankings {
				want += kendall.DistNaive(res.Consensus, r, snap.N)
			}
			if res.Score != want {
				t.Fatalf("step %d %s: score %d, Σ DistNaive %d", step, name, res.Score, want)
			}
		}
	}
	if as.DeltaCount() != 30 {
		t.Errorf("DeltaCount = %d, want 30", as.DeltaCount())
	}
	if as.Version() != 30 {
		t.Errorf("Version = %d, want 30", as.Version())
	}
}

// TestApproxSessionValidation pins the delta validation rules: partial adds
// only on toplists datasets, universe bounds, removal matching, and the
// emptied-dataset guard — with the dataset untouched on every error.
func TestApproxSessionValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(303))

	// Complete dataset: a partial add is rejected.
	cd := gen.UniformDataset(rng, 4, 10)
	cas, err := rankagg.NewApproxSession(cd)
	if err != nil {
		t.Fatal(err)
	}
	if err := cas.AddRanking(topList(cd.Rankings[0], 4)); err == nil {
		t.Error("partial add on a complete dataset accepted")
	}

	// Toplists dataset: a partial add is fine, an out-of-universe one is not.
	td := topListDataset(rng, 4, 12, 4, 8)
	tas, err := rankagg.NewApproxSession(td)
	if err != nil {
		t.Fatal(err)
	}
	if err := tas.AddRanking(topList(gen.UniformRanking(rng, 12), 5)); err != nil {
		t.Errorf("partial add on a toplists dataset rejected: %v", err)
	}
	if err := tas.AddRanking(&rankagg.Ranking{Buckets: [][]int{{0, 12}}}); err == nil {
		t.Error("out-of-universe add accepted")
	}
	if err := tas.AddRanking(&rankagg.Ranking{}); err == nil {
		t.Error("empty ranking add accepted")
	}
	if err := tas.RemoveRanking(rankagg.FromPermutation([]int{11, 10, 9})); !errors.Is(err, rankagg.ErrRankingNotFound) {
		t.Errorf("RemoveRanking(absent) = %v, want ErrRankingNotFound", err)
	}
	all := append([]*rankagg.Ranking(nil), tas.Dataset().Rankings...)
	if err := tas.ApplyDelta(nil, all); !errors.Is(err, rankagg.ErrDatasetEmptied) {
		t.Errorf("ApplyDelta(remove all) = %v, want ErrDatasetEmptied", err)
	}

	// Non-matrix-free algorithms and pair matrices have no business here.
	if _, err := tas.Run(context.Background(), "BordaCount"); err == nil {
		t.Error("ApproxSession ran a matrix-tier algorithm")
	}
	sess, err := rankagg.NewSession(cd)
	if err != nil {
		t.Fatal(err)
	}
	p := sess.Pairs()
	if _, err := cas.Run(context.Background(), "lehmer", rankagg.WithPairs(p)); !errors.Is(err, rankagg.ErrMatrixFreePairs) {
		t.Errorf("Run(WithPairs) = %v, want ErrMatrixFreePairs", err)
	}
	if _, err := rankagg.NewApproxSession(cd, rankagg.WithPairs(p)); !errors.Is(err, rankagg.ErrMatrixFreePairs) {
		t.Errorf("NewApproxSession(WithPairs) = %v, want ErrMatrixFreePairs", err)
	}
}

// pollCtx cancels itself after its Err method has been consulted limit
// times — a deterministic mid-encode cancellation, independent of timing.
type pollCtx struct {
	context.Context
	polls, limit int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestApproxSessionCancelMidEncode: a context cancelled between per-ranking
// encode passes aborts the state build with context.Canceled, and the
// session stays usable — the next Run rebuilds cleanly.
func TestApproxSessionCancelMidEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	d := topListDataset(rng, 40, 30, 10, 20)
	as, err := rankagg.NewApproxSession(d, rankagg.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &pollCtx{Context: context.Background(), limit: 6}
	if _, err := as.Run(ctx, "lehmer"); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-encode cancel = %v, want context.Canceled", err)
	}
	if ctx.polls <= 6 {
		t.Fatalf("cancellation fired after %d polls; encode never polled mid-build", ctx.polls)
	}
	res, err := as.Run(context.Background(), "lehmer")
	if err != nil {
		t.Fatalf("run after cancelled build: %v", err)
	}
	oracle, err := rankagg.Aggregate("lehmer", d)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consensus.Equal(oracle) {
		t.Errorf("post-cancel consensus %v, cold Lehmer %v", res.Consensus, oracle)
	}
}
