package algo

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rankagg/internal/core"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// kwiksortRecursive is the allocating recursive KwikSort pass the
// in-place kwikSorter replaced, kept verbatim as its oracle: three fresh
// slices per node, every pair cost read through the scalar
// CostBefore/CostTied dispatch, and bucket lists concatenated on the way
// up. The pivot and child-seed draws are the same splitmix64 calls, so
// both must return the same buckets in the same order.
func kwiksortRecursive(p *kendall.Pairs, seed int64, elems []int, tok *spareTokens) [][]int {
	switch len(elems) {
	case 0:
		return nil
	case 1:
		return [][]int{elems}
	}
	s := uint64(seed)
	pivot := elems[int(splitmix64(s)%uint64(len(elems)))]
	leftSeed, rightSeed := int64(splitmix64(s+1)), int64(splitmix64(s+2))
	var left, right []int
	tied := []int{pivot}
	for _, e := range elems {
		if e == pivot {
			continue
		}
		cb := p.CostBefore(e, pivot) // e strictly before pivot
		ca := p.CostBefore(pivot, e) // e strictly after pivot
		ct := p.CostTied(e, pivot)   // e tied with pivot
		switch {
		case cb <= ca && cb <= ct:
			left = append(left, e)
		case ca <= ct:
			right = append(right, e)
		default:
			tied = append(tied, e)
		}
	}
	var lb [][]int
	if tok != nil && len(left) >= kwikParallelMin && len(right) >= kwikParallelMin && tok.tryAcquire() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tok.release()
			lb = kwiksortRecursive(p, leftSeed, left, tok)
		}()
		rb := kwiksortRecursive(p, rightSeed, right, tok)
		wg.Wait()
		out := append(lb, tied)
		return append(out, rb...)
	}
	out := append(kwiksortRecursive(p, leftSeed, left, tok), tied)
	return append(out, kwiksortRecursive(p, rightSeed, right, tok)...)
}

// kwikOracleBest is KwikSort{Runs: runs} at seed through the
// recursive oracle: every run from its run-indexed seed, scored, the
// lowest score kept with ties to the lowest run index.
func kwikOracleBest(p *kendall.Pairs, seed int64, runs int) [][]int {
	var best [][]int
	var bestScore int64
	for run := 0; run < runs; run++ {
		elems := make([]int, p.N)
		for i := range elems {
			elems[i] = i
		}
		b := kwiksortRecursive(p, seed+0x6b71+int64(run)*0x9e3779b9, elems, nil)
		if s := p.Score(&rankings.Ranking{Buckets: b}); best == nil || s < bestScore {
			best, bestScore = b, s
		}
	}
	return best
}

// namedPairs is one layout of a dataset's pair matrix.
type namedPairs struct {
	name string
	p    *kendall.Pairs
}

// kwikLayouts builds d's pair matrix in every layout KwikSort can read:
// each MatrixMode, each mode untiled, and a compact width whose tied
// plane a partial-ranking delta materialized.
func kwikLayouts(d *rankings.Dataset) []namedPairs {
	var out []namedPairs
	for _, mode := range []kendall.MatrixMode{kendall.ModeAuto, kendall.ModeInt32, kendall.ModeInt16, kendall.ModeInt8} {
		out = append(out,
			namedPairs{mode.String(), kendall.NewPairsMode(d, mode)},
			namedPairs{mode.String() + "-untiled", kendall.NewPairsUntiled(d, mode)})
	}
	q := kendall.NewPairs(d).Clone()
	partial := rankings.New([]int{0})
	q.Add(partial)
	q.Remove(partial)
	return append(out, namedPairs{"delta-materialized", q})
}

// incompleteLayouts builds d's pair matrix in every MatrixMode after
// dropping element 0 from its first ranking. The dataset is then
// incomplete, so every layout stores its tied plane: AggregateCtx rejects
// such input, but a pass reads whatever matrix it is given and must match
// the oracle on it too.
func incompleteLayouts(d *rankings.Dataset) []namedPairs {
	rks := append([]*rankings.Ranking(nil), d.Rankings...)
	first := &rankings.Ranking{}
	for _, b := range rks[0].Buckets {
		var nb []int
		for _, e := range b {
			if e != 0 {
				nb = append(nb, e)
			}
		}
		if len(nb) > 0 {
			first.Buckets = append(first.Buckets, nb)
		}
	}
	rks[0] = first
	partial := rankings.NewDataset(d.N, rks...)
	var out []namedPairs
	for _, mode := range []kendall.MatrixMode{kendall.ModeAuto, kendall.ModeInt32, kendall.ModeInt16, kendall.ModeInt8} {
		out = append(out, namedPairs{"incomplete-" + mode.String(), kendall.NewPairsMode(partial, mode)})
	}
	return out
}

// coarseTiedDataset draws rankings with at most three buckets, so many
// pivots find their cheapest placement tied.
func coarseTiedDataset(rng *rand.Rand, m, n int) *rankings.Dataset {
	rks := make([]*rankings.Ranking, m)
	for i := range rks {
		pos := make([]int, n)
		for e := range pos {
			pos[e] = 1 + rng.Intn(3)
		}
		rks[i] = rankings.FromPositions(pos)
	}
	return rankings.NewDataset(n, rks...)
}

// TestKwikSortMatchesRecursiveOracle pins the in-place KwikSort to the
// recursive oracle: identical buckets, element order included, for single
// passes over many seeds on every layout, and for the best-of through
// AggregateCtx at Runs 1 and 16 on 1, 2 and 8 workers — one run on 8
// workers leaves 7 spare tokens, which reach the recursion on the
// n ≥ 3·kwikParallelMin datasets.
func TestKwikSortMatchesRecursiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	ctx := context.Background()
	for trial, n := range []int{1, 2, 3, 5, 12, 40, 3 * kwikParallelMin, 4*kwikParallelMin + 11} {
		m := 1 + rng.Intn(9)
		d := randomTiedDataset(rng, m, n)
		if trial%2 == 1 {
			d = coarseTiedDataset(rng, m, n)
		}
		for _, l := range append(kwikLayouts(d), incompleteLayouts(d)...) {
			p := l.p
			label := fmt.Sprintf("trial %d (n=%d m=%d %s)", trial, n, m, l.name)
			run := newKwikRun(p, nil)
			for i := 0; i < 25; i++ {
				seed := rng.Int63()
				elems := make([]int, n)
				for j := range elems {
					elems[j] = j
				}
				want := kwiksortRecursive(p, seed, elems, nil)
				if got := run(seed).Buckets; !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d: pass %v, oracle %v", label, seed, got, want)
				}
			}
			if !p.Complete {
				continue
			}
			for _, runs := range []int{1, 16} {
				seed := rng.Int63()
				want := kwikOracleBest(p, seed, runs)
				for _, workers := range []int{1, 2, 8} {
					res, err := core.Run(ctx, &KwikSort{Runs: runs}, d, core.RunOptions{Pairs: p, Workers: workers, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.Consensus.Buckets, want) {
						t.Fatalf("%s runs=%d workers=%d: consensus %v, oracle %v", label, runs, workers, res.Consensus, want)
					}
					if res.Stats.Restarts != runs {
						t.Fatalf("%s runs=%d workers=%d: %d runs reported", label, runs, workers, res.Stats.Restarts)
					}
				}
			}
		}
	}
}

// TestKwikSortRunAllocs pins one KwikSort pass at n=200 to a constant
// number of allocations — the element and scratch buffers, the bucket
// list and the ranking — where the recursive pass made about a thousand.
func TestKwikSortRunAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d := randomTiedDataset(rng, 20, 200)
	for _, l := range kwikLayouts(d) {
		run := newKwikRun(l.p, nil)
		seed := int64(0)
		allocs := testing.AllocsPerRun(20, func() {
			seed++
			run(seed)
		})
		if allocs > 4 {
			t.Errorf("%s: a KwikSort pass at n=200 made %.0f allocations, want at most 4", l.name, allocs)
		}
	}
}
