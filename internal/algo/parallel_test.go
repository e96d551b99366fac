package algo

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rankagg/internal/core"
	"rankagg/internal/gen"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// TestBioConsertParallelMatchesSequential asserts that the parallel restart
// pool returns exactly the consensus of the sequential path (score ties are
// broken by seed index in both). Run under -race in CI to double as a data
// race check on the shared pair matrix.
func TestBioConsertParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 15; trial++ {
		d := randomTiedDataset(rng, 3+rng.Intn(8), 4+rng.Intn(12))
		p := kendall.NewPairs(d)
		seq, err := aggregate(&BioConsert{}, d, core.RunOptions{Pairs: p, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := aggregate(&BioConsert{}, d, core.RunOptions{Pairs: p, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !par.Clone().Canonicalize().Equal(seq.Clone().Canonicalize()) {
				t.Fatalf("trial %d: %d-worker consensus %v != sequential %v",
					trial, workers, par, seq)
			}
		}
	}
}

// TestBioConsertDeterministic runs the default (parallel) BioConsert
// repeatedly on one dataset and demands the identical consensus every time.
func TestBioConsertDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	d := randomTiedDataset(rng, 9, 14)
	first, err := aggregate(&BioConsert{}, d)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 10; run++ {
		again, err := aggregate(&BioConsert{}, d)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Clone().Canonicalize().Equal(first.Clone().Canonicalize()) {
			t.Fatalf("run %d: consensus %v differs from first run %v", run, again, first)
		}
	}
}

// TestAggregateWithPairsMatchesAggregate checks, for every registered
// algorithm, that handing it a prebuilt matrix (RunOptions.Pairs) yields
// the same consensus as a run that builds its own.
func TestAggregateWithPairsMatchesAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	d := randomTiedDataset(rng, 5, 9)
	p := kendall.NewPairs(d)
	for _, name := range core.Names() {
		a, err := core.New(name)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := aggregate(a, d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shared, err := aggregate(a, d, core.RunOptions{Pairs: p})
		if err != nil {
			t.Fatalf("%s with pairs: %v", name, err)
		}
		if p.Score(shared) != p.Score(plain) {
			t.Errorf("%s: shared-pairs score %d != plain score %d",
				name, p.Score(shared), p.Score(plain))
		}
	}
}

// TestSharedPairsConcurrentReaders aggregates with several algorithms at
// once over ONE pair matrix — the thread-safety contract of the shared
// engine (meaningful under -race).
func TestSharedPairsConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	d := randomTiedDataset(rng, 6, 12)
	p := kendall.NewPairs(d)
	algos := []core.Aggregator{
		&BioConsert{},
		&KwikSort{},
		&FaginDyn{},
		&RepeatChoice{},
		PickAPerm{},
		&Chanas{},
	}
	done := make(chan error, len(algos))
	for _, a := range algos {
		go func(a core.Aggregator) {
			_, err := aggregate(a, d, core.RunOptions{Pairs: p})
			done <- err
		}(a)
	}
	for range algos {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// localSearch runs BioConsert's descent from the given seed and returns the
// local optimum and its score.
func localSearch(p *kendall.Pairs, seed *rankings.Ranking) (*rankings.Ranking, int64) {
	r, score, _ := localSearchCtx(context.Background(), p, seed)
	return r, score
}

// oracleLocalSearch is the seed's descent (per-element full rescan, no
// fused pass, no skip), kept as an independent oracle for the optimized
// localSearch: identical move selection ⇒ identical local optimum.
func oracleLocalSearch(p *kendall.Pairs, seed *rankings.Ranking) (*rankings.Ranking, int64) {
	buckets := make([][]int, len(seed.Buckets))
	bucketOf := make([]int, p.N)
	for i, b := range seed.Buckets {
		buckets[i] = append([]int(nil), b...)
		for _, e := range b {
			bucketOf[e] = i
		}
	}
	elems := seed.Elements()
	for improved := true; improved; {
		improved = false
		for _, x := range elems {
			k := len(buckets)
			tieCost := make([]int64, k)
			befCost := make([]int64, k)
			aftCost := make([]int64, k)
			for j, b := range buckets {
				for _, y := range b {
					if y == x {
						continue
					}
					tieCost[j] += p.CostTied(x, y)
					befCost[j] += p.CostBefore(x, y)
					aftCost[j] += p.CostBefore(y, x)
				}
			}
			preB := make([]int64, k+1)
			for j := 0; j < k; j++ {
				preB[j+1] = preB[j] + aftCost[j]
			}
			sufA := make([]int64, k+1)
			for j := k - 1; j >= 0; j-- {
				sufA[j] = sufA[j+1] + befCost[j]
			}
			cur := bucketOf[x]
			curCost := preB[cur] + sufA[cur+1] + tieCost[cur]
			bestDelta := int64(0)
			bestTie, bestNew := -1, -1
			for j := 0; j < k; j++ {
				if j == cur {
					continue
				}
				if d := preB[j] + sufA[j+1] + tieCost[j] - curCost; d < bestDelta {
					bestDelta, bestTie, bestNew = d, j, -1
				}
			}
			for q := 0; q <= k; q++ {
				if d := preB[q] + sufA[q] - curCost; d < bestDelta {
					bestDelta, bestTie, bestNew = d, -1, q
				}
			}
			if bestTie < 0 && bestNew < 0 {
				continue
			}
			// apply
			b := buckets[cur]
			for i, e := range b {
				if e == x {
					b[i] = b[len(b)-1]
					buckets[cur] = b[:len(b)-1]
					break
				}
			}
			if len(buckets[cur]) == 0 {
				buckets = append(buckets[:cur], buckets[cur+1:]...)
				if bestTie > cur {
					bestTie--
				}
				if bestNew > cur {
					bestNew--
				}
			}
			if bestTie >= 0 {
				buckets[bestTie] = append(buckets[bestTie], x)
			} else {
				buckets = append(buckets, nil)
				copy(buckets[bestNew+1:], buckets[bestNew:])
				buckets[bestNew] = []int{x}
			}
			for j, bk := range buckets {
				for _, e := range bk {
					bucketOf[e] = j
				}
			}
			improved = true
		}
	}
	out := &rankings.Ranking{Buckets: make([][]int, len(buckets))}
	for i, b := range buckets {
		out.Buckets[i] = append([]int(nil), b...)
	}
	return out, p.Score(out)
}

// TestLocalSearchMatchesOracle pins the fused/incremental descent to the
// seed's move-for-move behavior: full-cover seeds (fast path) and subset
// seeds (fast path on sub-instances).
func TestLocalSearchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(14)
		d := randomTiedDataset(rng, 2+rng.Intn(6), n)
		p := kendall.NewPairs(d)
		seed := d.Rankings[1%d.M()]
		if trial%3 == 1 {
			// Subset seed: restrict to a strict subset of the universe.
			pos := seed.Positions(n)
			pos[rng.Intn(n)] = 0
			seed = rankings.FromPositions(pos)
		}
		got, gotScore := localSearch(p, seed)
		want, wantScore := oracleLocalSearch(p, seed)
		if gotScore != wantScore || !got.Clone().Canonicalize().Equal(want.Clone().Canonicalize()) {
			t.Fatalf("trial %d: localSearch %v (%d) != oracle %v (%d)",
				trial, got, gotScore, want, wantScore)
		}
	}
}

// TestUnanimityDecompositionSliceUF re-checks the rewritten union-find
// against the decomposition contract: blocks are consecutive, unanimous
// across, and partition the element set.
func TestUnanimityDecompositionSliceUF(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	for trial := 0; trial < 25; trial++ {
		d := randomTiedDataset(rng, 2+rng.Intn(5), 3+rng.Intn(10))
		p := kendall.NewPairs(d)
		elems := make([]int, d.N)
		for i := range elems {
			elems[i] = i
		}
		blocks := UnanimityDecomposition(p, elems)
		m := d.M()
		seen := make(map[int]bool)
		for _, blk := range blocks {
			for _, e := range blk {
				if seen[e] {
					t.Fatalf("element %d in two blocks", e)
				}
				seen[e] = true
			}
		}
		if len(seen) != d.N {
			t.Fatalf("blocks cover %d of %d elements", len(seen), d.N)
		}
		for i := 0; i < len(blocks); i++ {
			for j := i + 1; j < len(blocks); j++ {
				for _, a := range blocks[i] {
					for _, b := range blocks[j] {
						if p.Before(a, b) != m {
							t.Fatalf("pair (%d,%d) across blocks %d<%d is not unanimous", a, b, i, j)
						}
					}
				}
			}
		}
	}
}

// TestChainedSharesMatrix checks the chained pipeline against its
// unchained equivalent: Borda→BioConsert through the shared matrix must
// equal running the stages by hand.
func TestChainedSharesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	for trial := 0; trial < 10; trial++ {
		d := randomTiedDataset(rng, 4, 10)
		chained, err := aggregate(&Chained{}, d)
		if err != nil {
			t.Fatal(err)
		}
		seed, err := aggregate(&Borda{}, d)
		if err != nil {
			t.Fatal(err)
		}
		refined, err := (&BioConsert{}).Refine(context.Background(), d, seed, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		manual := refined.Consensus
		if err != nil {
			t.Fatal(err)
		}
		if !chained.Clone().Canonicalize().Equal(manual.Clone().Canonicalize()) {
			t.Fatalf("trial %d: chained %v != manual %v", trial, chained, manual)
		}
	}
}

// TestKwikSortRecursionWorkerInvariance pins the satellite contract of the
// parallel divide & conquer: because every recursion node derives its
// children's seeds from its own rng (instead of all nodes sharing one
// stream), the consensus is a pure function of the run seed — identical
// for a sequential run, a wide worker budget, and anything between, with
// or without spare tokens flowing into the recursion.
func TestKwikSortRecursionWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	// n well above kwikParallelMin so real splits hit the parallel path.
	d := randomTiedDataset(rng, 6, 3*kwikParallelMin)
	p := kendall.NewPairs(d)
	ctx := context.Background()
	for _, runs := range []int{1, 3} {
		a := &KwikSort{Runs: runs}
		base, err := core.Run(ctx, a, d, core.RunOptions{Pairs: p, Workers: 1, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 16} {
			got, err := core.Run(ctx, a, d, core.RunOptions{Pairs: p, Workers: workers, Seed: 77})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Consensus.Equal(base.Consensus) {
				t.Fatalf("runs=%d workers=%d: consensus differs from sequential run", runs, workers)
			}
		}
	}
}

// TestRestartPoolAllocs pins a cold n=200 solve at Workers 1 —
// one search state reset for every seed, bests kept as flat copies — to at
// most 1,000 allocations on both served exact-tier shapes, and its
// consensus, member order inside buckets included, to the one that fresh
// per-seed descents pick: lowest score, first seed on ties.
func TestRestartPoolAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for _, c := range []struct {
		name string
		d    *rankings.Dataset
	}{
		{"uniform_m20", gen.UniformDataset(rng, 20, 200)},
		{"markov_m30", gen.MarkovDataset(rng, gen.UniformRanking(rng, 200), 200, 30, 200)},
	} {
		p := kendall.NewPairs(c.d)
		var got *rankings.Ranking
		allocs := testing.AllocsPerRun(1, func() {
			var err error
			if got, err = aggregate(&BioConsert{}, c.d, core.RunOptions{Pairs: p, Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1000 {
			t.Errorf("%s: a cold solve made %.0f allocations, want at most 1,000", c.name, allocs)
		}
		var want *rankings.Ranking
		var wantScore int64
		for _, seed := range c.d.Rankings {
			r, score, _ := localSearchCtx(context.Background(), p, seed)
			if want == nil || score < wantScore {
				want, wantScore = r, score
			}
		}
		if !reflect.DeepEqual(got.Buckets, want.Buckets) {
			t.Errorf("%s: consensus %v, fresh descents pick %v", c.name, got, want)
		}
	}
}

// TestDistinctSeedsMatchesCanonicalKeys checks the restart pool's seed
// dedupe against canonical string keys: a seed repeats when an earlier one
// is the same sequence of bucket sets, whatever the member order. The
// confirming comparison is checked on its own too, since the hash screen
// rarely lets a non-repeat through to it.
func TestDistinctSeedsMatchesCanonicalKeys(t *testing.T) {
	pos := make([]int32, 4)
	a := rankings.New([]int{0, 1}, []int{2, 3})
	for _, c := range []struct {
		b    *rankings.Ranking
		want bool
	}{
		{rankings.New([]int{1, 0}, []int{3, 2}), true},
		{rankings.New([]int{2, 3}, []int{0, 1}), false},
		{rankings.New([]int{0, 2}, []int{1, 3}), false},
		{rankings.New([]int{0, 1}, []int{2}, []int{3}), false},
	} {
		if got := sameBucketOrder(a, c.b, pos); got != c.want {
			t.Errorf("sameBucketOrder(%v, %v) = %v, want %v", a, c.b, got, c.want)
		}
		if slices.ContainsFunc(pos, func(v int32) bool { return v != 0 }) {
			t.Fatalf("sameBucketOrder left its scratch dirty: %v", pos)
		}
	}
	rng := rand.New(rand.NewSource(94))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		var seeds []*rankings.Ranking
		for i := 0; i < 1+rng.Intn(12); i++ {
			if len(seeds) > 0 && rng.Intn(3) == 0 {
				// A repeat with each bucket's members shuffled.
				r := seeds[rng.Intn(len(seeds))].Clone()
				for _, b := range r.Buckets {
					rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
				}
				seeds = append(seeds, r)
				continue
			}
			seeds = append(seeds, gen.UniformRanking(rng, n))
		}
		var want []*rankings.Ranking
		seen := map[string]bool{}
		for _, s := range seeds {
			if key := s.Clone().Canonicalize().String(); !seen[key] {
				seen[key] = true
				want = append(want, s)
			}
		}
		got := distinctSeeds(seeds, n)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d distinct seeds, canonical keys find %d in %v", trial, len(got), len(want), seeds)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: distinct seed %d is %v, canonical keys keep %v", trial, i, got[i], want[i])
			}
		}
	}
}
