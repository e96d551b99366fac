package algo

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rankagg/internal/gen"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// dropSome removes each element of r with probability 1/4 (keeping at
// least two so the descent has something to move), yielding the partial
// seeds and rankings the element-list scatter and the general scan exist
// for.
func dropSome(rng *rand.Rand, r *rankings.Ranking) *rankings.Ranking {
	out := &rankings.Ranking{}
	for _, b := range r.Buckets {
		var nb []int
		for _, e := range b {
			if rng.Intn(4) == 0 {
				continue
			}
			nb = append(nb, e)
		}
		if len(nb) > 0 {
			out.Buckets = append(out.Buckets, nb)
		}
	}
	if out.Len() < 2 {
		return r
	}
	return out
}

// DescentSweeps runs BioConsert's placement-scan descent from seed for at
// most maxSweeps full sweeps over the seed's elements (maxSweeps <= 0 means
// until a local optimum) and returns the reached ranking, its generalized
// Kemeny score, and the number of applied moves — the fingerprint the
// scan-engine property tests compare across storage backends.
func DescentSweeps(p *kendall.Pairs, seed *rankings.Ranking, maxSweeps int) (*rankings.Ranking, int64, int64) {
	st := newSearchState(p, seed)
	score := p.Score(st.ranking())
	for sweep := 0; maxSweeps <= 0 || sweep < maxSweeps; sweep++ {
		improved := false
		for _, x := range st.elems {
			if delta := st.improveElement(x); delta < 0 {
				score += delta
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return st.ranking(), score, st.version - 1
}

// TestScanEngineMatchesOracle is the scan-engine equivalence property: the
// tiled int8/int16 backends and the planar untiled layout must all drive
// the placement-scan descent move-for-move identically to the int32
// oracle — same final ranking, same score, same number of applied moves —
// from every input seed, on complete and partial datasets alike. The
// applied-move count is the descent's full trajectory fingerprint: two
// descents that ever disagree on one move selection cannot keep ranking,
// score and move count all aligned across seeds.
func TestScanEngineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		m, n := 2+rng.Intn(6), 3+rng.Intn(15)
		for _, partial := range []bool{false, true} {
			rks := make([]*rankings.Ranking, m)
			for i := range rks {
				rks[i] = gen.UniformRanking(rng, n)
				if partial {
					rks[i] = dropSome(rng, rks[i])
				}
			}
			d := rankings.NewDataset(n, rks...)
			oracle := kendall.NewPairsMode(d, kendall.ModeInt32)
			backends := []struct {
				name string
				p    *kendall.Pairs
			}{
				{"auto", kendall.NewPairsMode(d, kendall.ModeAuto)},
				{"int16", kendall.NewPairsMode(d, kendall.ModeInt16)},
				{"int8", kendall.NewPairsMode(d, kendall.ModeInt8)},
				{"untiled-int16", kendall.NewPairsUntiled(d, kendall.ModeInt16)},
			}
			seeds := append([]*rankings.Ranking{}, d.Rankings...)
			if !partial {
				// A subset seed on a complete dataset scatters over its own
				// elements (the streaming scatter needs a full universe).
				seeds = append(seeds, dropSome(rng, d.Rankings[0]))
			}
			for si, seed := range seeds {
				wantR, wantS, wantM := DescentSweeps(oracle, seed, 0)
				if got := oracle.Score(wantR); got != wantS {
					t.Fatalf("trial %d seed %d: oracle descent score %d, rescore %d", trial, si, wantS, got)
				}
				for _, b := range backends {
					gotR, gotS, gotM := DescentSweeps(b.p, seed, 0)
					if !gotR.Equal(wantR) || gotS != wantS || gotM != wantM {
						t.Fatalf("trial %d (m=%d n=%d partial=%v) seed %d backend %s:\n got %v score %d moves %d\nwant %v score %d moves %d",
							trial, m, n, partial, si, b.name, gotR, gotS, gotM, wantR, wantS, wantM)
					}
				}
			}
		}
	}
}

// TestScatterMatchesGather pins the two complete-scan accumulators against
// each other in lockstep on identical inputs: a state forced off the
// streaming scatter (white-box full=false, so it scatters over the seed's
// element list as a partial seed does) must select the exact same move as
// the streaming state at every single improveElement call.
func TestScatterMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 20; trial++ {
		m, n := 2+rng.Intn(6), 3+rng.Intn(15)
		d := randomTiedDataset(rng, m, n)
		for _, mode := range []kendall.MatrixMode{kendall.ModeAuto, kendall.ModeInt32} {
			p := kendall.NewPairsMode(d, mode)
			seed := d.Rankings[rng.Intn(m)]
			fast := newSearchState(p, seed)
			slow := newSearchState(p, seed)
			if !fast.full {
				t.Fatalf("trial %d: complete seed did not mark the state full", trial)
			}
			slow.full = false
			for sweep := 0; sweep < 3; sweep++ {
				for _, x := range fast.elems {
					df := fast.improveElement(x)
					ds := slow.improveElement(x)
					if df != ds {
						t.Fatalf("trial %d mode %v: scatter delta %d, gather delta %d at element %d", trial, mode, df, ds, x)
					}
				}
			}
			if !fast.ranking().Equal(slow.ranking()) {
				t.Fatalf("trial %d mode %v: scatter and gather descents diverged", trial, mode)
			}
		}
	}
}

// TestDescentSweepsBudget pins the sweep budget: one sweep applies at most
// one move per element, and the unbounded run matches localSearch.
func TestDescentSweepsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	d := randomTiedDataset(rng, 5, 12)
	p := kendall.NewPairs(d)
	seed := d.Rankings[0]
	_, _, moves1 := DescentSweeps(p, seed, 1)
	if moves1 > int64(seed.Len()) {
		t.Fatalf("one sweep applied %d moves over %d elements", moves1, seed.Len())
	}
	full, score, _ := DescentSweeps(p, seed, 0)
	lsR, lsScore := localSearch(p, seed)
	if score != lsScore || !full.Equal(lsR) {
		t.Fatalf("unbounded DescentSweeps (score %d) diverges from localSearch (score %d)", score, lsScore)
	}
}

// curIndexWalk is the pre-idxOf O(k) order walk, kept as the oracle the
// incremental index is tested against.
func (st *searchState) curIndexWalk(x int) int {
	mine := st.bucketOf[x]
	for j, id := range st.order {
		if id == mine {
			return j
		}
	}
	return -1
}

// TestCurIndexIncremental pins the incrementally maintained bucket-position
// index against the O(k) order walk it replaced, move for move: after every
// improveElement call of a full descent — on complete and partial seeds —
// curIndex must agree with curIndexWalk for every live element, and the
// order/idxOf tables must stay exact inverses.
func TestCurIndexIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	check := func(t *testing.T, st *searchState, trial, sweep int) {
		t.Helper()
		for j, id := range st.order {
			if got := st.idxOf[id]; got != int32(j) {
				t.Fatalf("trial %d sweep %d: idxOf[%d] = %d, order says %d", trial, sweep, id, got, j)
			}
		}
		for _, x := range st.elems {
			if fast, walk := st.curIndex(x), st.curIndexWalk(x); fast != walk {
				t.Fatalf("trial %d sweep %d: curIndex(%d) = %d, walk oracle = %d", trial, sweep, x, fast, walk)
			}
		}
	}
	for trial := 0; trial < 20; trial++ {
		m, n := 2+rng.Intn(6), 3+rng.Intn(15)
		d := randomTiedDataset(rng, m, n)
		p := kendall.NewPairs(d)
		seed := d.Rankings[rng.Intn(m)]
		if trial%2 == 1 {
			// Partial seeds exercise the element-list scatter and their
			// singleton-insertion order shifts.
			seed = dropSome(rng, seed)
		}
		st := newSearchState(p, seed)
		check(t, st, trial, -1)
		for sweep := 0; sweep < 4; sweep++ {
			for _, x := range st.elems {
				st.improveElement(x)
				check(t, st, trial, sweep)
			}
		}
	}
}

// TestScanEngineFoldAtServedShape checks the one-pass fold against the old
// fold (fold_oracle_test.go) at every scan of full descents on the served
// exact tier's shapes — n=200 with m=20 uniform bucket orders or m=30
// Markov walks, where a descent's state holds 180–200 buckets — on every
// matrix mode and both untiled layouts, from full and partial seeds. int8
// and int16 counts take packed sums and int32 counts split ones. Two
// n=40 datasets sit at the int16 limit: 32,767 rankings still pack, and
// 32,768 make auto mode itself resolve to int32 counts; an all-tied seed
// there drives bucket sums past 2¹⁶.
func TestScanEngineFoldAtServedShape(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	uniform := gen.UniformDataset(rng, 20, 200)
	markov := gen.MarkovDataset(rng, gen.UniformRanking(rng, 200), 200, 30, 200)
	// Rankings drawn from a pool of 40, so the matrices build fast.
	pool := gen.UniformDataset(rng, 40, 40)
	widest := rankings.NewDataset(40)
	for i := 0; i <= kendall.MaxInt16Rankings; i++ {
		widest.Rankings = append(widest.Rankings, pool.Rankings[rng.Intn(len(pool.Rankings))])
	}
	wide := rankings.NewDataset(40, widest.Rankings[:kendall.MaxInt16Rankings]...)
	allTied := rankings.New(pool.Rankings[0].Elements())
	type backend struct {
		name   string
		p      *kendall.Pairs
		packed bool
	}
	layouts := func(d *rankings.Dataset) []backend {
		return []backend{
			{"auto", kendall.NewPairsMode(d, kendall.ModeAuto), true},
			{"int32", kendall.NewPairsMode(d, kendall.ModeInt32), false},
			{"int16", kendall.NewPairsMode(d, kendall.ModeInt16), true},
			{"int8", kendall.NewPairsMode(d, kendall.ModeInt8), true},
			{"untiled-int16", kendall.NewPairsUntiled(d, kendall.ModeInt16), true},
			{"untiled-int8", kendall.NewPairsUntiled(d, kendall.ModeInt8), true},
		}
	}
	cases := []struct {
		name     string
		d        *rankings.Dataset
		backends []backend
	}{
		{"uniform", uniform, layouts(uniform)},
		{"markov", markov, layouts(markov)},
		{"m32767", wide, []backend{{"auto", kendall.NewPairsMode(wide, kendall.ModeAuto), true}}},
		{"m32768", widest, []backend{{"auto", kendall.NewPairsMode(widest, kendall.ModeAuto), false}}},
	}
	for _, c := range cases {
		seeds := []*rankings.Ranking{c.d.Rankings[0], c.d.Rankings[1], dropSome(rng, c.d.Rankings[2])}
		if c.d.N == allTied.Len() {
			seeds = append(seeds, allTied)
		}
		for _, b := range c.backends {
			for si, seed := range seeds {
				st := newSearchState(b.p, seed)
				if st.packed != b.packed {
					t.Fatalf("%s/%s: packed lanes %v, want %v (width %d)", c.name, b.name, st.packed, b.packed, b.p.Width())
				}
				label := fmt.Sprintf("%s/%s seed %d", c.name, b.name, si)
				scans, moves := foldLockstep(t, st, label)
				if moves == 0 || scans <= moves {
					t.Fatalf("%s: %d scans and %d moves, want a descent that moves", label, scans, moves)
				}
				t.Logf("%s: %d scans, %d moves, %d buckets at the optimum", label, scans, moves, len(st.order))
				// The lockstep descent is the production descent.
				wantR, wantS, wantM := DescentSweeps(b.p, seed, 0)
				if gotR := st.ranking(); !gotR.Equal(wantR) || int64(moves) != wantM || b.p.Score(gotR) != wantS {
					t.Fatalf("%s: lockstep descent ended at %d moves, DescentSweeps at %d", label, moves, wantM)
				}
			}
		}
	}
}

// TestPackedLanesGuard pins the packed-sum guard: int8 and int16 counts
// pack while n < 2¹⁷, because a bucket sum is then below 2³² and the low
// lane cannot carry into the high one; int32 counts never pack.
func TestPackedLanesGuard(t *testing.T) {
	const limit = 1 << 17
	if (limit-1)*kendall.MaxInt16Rankings >= 1<<32 {
		t.Fatalf("a bucket sum at n=%d can reach 2³²", limit-1)
	}
	for _, c := range []struct {
		width, n int
		want     bool
	}{
		{8, 200, true}, {16, limit - 1, true}, {8, limit, false}, {16, limit, false}, {32, 200, false},
	} {
		if got := packedLanes(c.width, c.n); got != c.want {
			t.Errorf("packedLanes(%d, %d) = %v, want %v", c.width, c.n, got, c.want)
		}
	}
}

// TestSearchStateResetMatchesFresh pins the restart pool's state reuse: a
// state that ran a descent and is reset to the next seed must hold what a
// fresh state for that seed holds — the same bucket order and members, no
// element seen, zero scatter sums with live size fields — and
// must then descend identically.
func TestSearchStateResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		m, n := 2+rng.Intn(6), 3+rng.Intn(15)
		d := randomTiedDataset(rng, m, n)
		for _, mode := range []kendall.MatrixMode{kendall.ModeAuto, kendall.ModeInt32} {
			p := kendall.NewPairsMode(d, mode)
			st := newSearchState(p, d.Rankings[0])
			st.descend(ctx, p.Score(d.Rankings[0]))
			next := d.Rankings[1]
			if trial%2 == 1 {
				next = dropSome(rng, next)
			}
			st.reset(next)
			fresh := newSearchState(p, next)
			if !slices.Equal(st.elems, fresh.elems) || !slices.Equal(st.order, fresh.order) ||
				!slices.Equal(st.idxOf, fresh.idxOf) || len(st.free) != 0 || st.version != fresh.version ||
				st.full != fresh.full || !slices.Equal(st.lastSeen, fresh.lastSeen) {
				t.Fatalf("trial %d mode %v: reset state differs from a fresh one", trial, mode)
			}
			for _, id := range st.order {
				if !slices.Equal(st.store[id], fresh.store[id]) {
					t.Fatalf("trial %d mode %v: bucket %d holds %v, fresh %v", trial, mode, id, st.store[id], fresh.store[id])
				}
				if want := (bucketSums{size: uint64(p.M) * uint64(len(st.store[id]))}); st.scat[id] != want {
					t.Fatalf("trial %d mode %v: bucket %d scratch %+v, want %+v", trial, mode, id, st.scat[id], want)
				}
			}
			for _, e := range st.elems {
				if st.bucketOf[e] != fresh.bucketOf[e] {
					t.Fatalf("trial %d mode %v: element %d in bucket %d, fresh %d", trial, mode, e, st.bucketOf[e], fresh.bucketOf[e])
				}
			}
			score := p.Score(next)
			gotS, wantS := st.descend(ctx, score), fresh.descend(ctx, score)
			if gotR, wantR := st.ranking(), fresh.ranking(); !reflect.DeepEqual(gotR.Buckets, wantR.Buckets) || gotS != wantS || st.version != fresh.version {
				t.Fatalf("trial %d mode %v: reset descent %v (score %d) vs fresh %v (score %d)", trial, mode, gotR, gotS, wantR, wantS)
			}
		}
	}
}
