package kendall

import (
	"math/rand"
	"testing"

	"rankagg/internal/rankings"
)

// legacyPairs is the seed's branchy O(m·n²) position-compare construction,
// kept as a reference implementation for the bucket-run rewrite.
func legacyPairs(d *rankings.Dataset) (before, tied []int32) {
	n := d.N
	before = make([]int32, n*n)
	tied = make([]int32, n*n)
	for _, r := range d.Rankings {
		pos := r.Positions(n)
		for a := 0; a < n; a++ {
			if pos[a] == 0 {
				continue
			}
			for b := a + 1; b < n; b++ {
				if pos[b] == 0 {
					continue
				}
				switch {
				case pos[a] < pos[b]:
					before[a*n+b]++
				case pos[a] > pos[b]:
					before[b*n+a]++
				default:
					tied[a*n+b]++
					tied[b*n+a]++
				}
			}
		}
	}
	return before, tied
}

// randomTiedRanking draws a ranking with ties covering a random subset of
// the universe (to exercise the absent-element path).
func randomTiedRanking(rng *rand.Rand, n int, partial bool) *rankings.Ranking {
	pos := make([]int, n)
	for e := 0; e < n; e++ {
		if partial && rng.Intn(4) == 0 {
			continue // absent
		}
		pos[e] = 1 + rng.Intn(1+n/2)
	}
	return rankings.FromPositions(pos)
}

func randomDataset(rng *rand.Rand, m, n int, partial bool) *rankings.Dataset {
	rks := make([]*rankings.Ranking, m)
	for i := range rks {
		rks[i] = randomTiedRanking(rng, n, partial)
	}
	return rankings.NewDataset(n, rks...)
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// materialize reads a matrix of any representation back into the three
// logical int32 planes through the public accessors, so tests can compare
// backends against plane-level oracles.
func materialize(p *Pairs) (before, after, tied []int32) {
	n := p.N
	before = make([]int32, n*n)
	after = make([]int32, n*n)
	tied = make([]int32, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			i := a*n + b
			before[i] = int32(p.before64(a, b))
			after[i] = int32(p.after64(a, b))
			tied[i] = int32(p.tiedPair(a, b))
		}
	}
	return before, after, tied
}

// allModes enumerates every storage mode for backend-parametrized suites.
var allModes = []MatrixMode{ModeAuto, ModeInt32, ModeInt16, ModeInt8}

// TestNewPairsMatchesLegacy checks the bucket-run accumulation against the
// seed's position-compare construction, on complete and partial datasets.
func TestNewPairsMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		m, n := 1+rng.Intn(8), 2+rng.Intn(20)
		d := randomDataset(rng, m, n, trial%2 == 1)
		before, tied := legacyPairs(d)
		for _, mode := range allModes {
			p := NewPairsMode(d, mode)
			gotBefore, gotAfter, gotTied := materialize(p)
			if !equalInt32(gotBefore, before) {
				t.Fatalf("trial %d (m=%d n=%d mode=%v): before matrix differs from legacy", trial, m, n, mode)
			}
			if !equalInt32(gotTied, tied) {
				t.Fatalf("trial %d (m=%d n=%d mode=%v): tied matrix differs from legacy", trial, m, n, mode)
			}
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if gotAfter[a*n+b] != gotBefore[b*n+a] {
						t.Fatalf("mode %v: after is not the transpose of before at (%d,%d)", mode, a, b)
					}
				}
			}
		}
	}
}

// TestNewPairsParallelMatchesSequential asserts the sharded build is
// byte-identical to the single-worker build (run under -race in CI).
func TestNewPairsParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 20; trial++ {
		m, n := 2+rng.Intn(12), 2+rng.Intn(40)
		d := randomDataset(rng, m, n, trial%2 == 1)
		for _, mode := range allModes {
			seq := newPairsWorkersMode(d, 1, mode)
			for _, workers := range []int{2, 3, 8} {
				par := newPairsWorkersMode(d, workers, mode)
				if !par.Equal(seq) {
					t.Fatalf("trial %d (mode %v): %d-worker build differs from sequential (m=%d n=%d)", trial, mode, workers, m, n)
				}
			}
		}
	}
}

// TestPairsScoreMatchesKemeny checks Score against the distance-based
// Kemeny score on complete datasets, and against the nested per-bucket
// Score it replaced on complete and partial ones, in every matrix mode and
// untiled layout. Candidates include subsets of the universe and
// singleton-heavy orders like the ones KwikSort emits, up to n≈300.
func TestPairsScoreMatchesKemeny(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 60; trial++ {
		m, n := 1+rng.Intn(6), 2+rng.Intn(12)
		if trial%4 == 3 {
			n = 100 + rng.Intn(200)
		}
		partialData := trial%3 == 2
		d := randomDataset(rng, m, n, partialData)
		var r *rankings.Ranking
		switch trial % 2 {
		case 0:
			r = randomTiedRanking(rng, n, trial%4 == 2)
		default:
			r = singletonHeavyRanking(rng, n, trial%3 == 0)
		}
		want := int64(0)
		for _, s := range d.Rankings {
			want += Dist(r, s, n)
		}
		for _, mode := range allModes {
			for _, p := range []*Pairs{NewPairsMode(d, mode), NewPairsUntiled(d, mode)} {
				got := p.Score(r)
				if oracle := scoreNested(p, r); got != oracle {
					t.Fatalf("trial %d (%s): Pairs.Score = %d, nested oracle %d", trial, p.Layout(), got, oracle)
				}
				if !partialData && got != want {
					t.Fatalf("trial %d (%s): Pairs.Score = %d, Σ Dist = %d", trial, p.Layout(), got, want)
				}
			}
		}
	}
}

// singletonHeavyRanking draws a bucket order with few ties (positions from
// a range four times the universe); partial drops a quarter of the
// elements.
func singletonHeavyRanking(rng *rand.Rand, n int, partial bool) *rankings.Ranking {
	pos := make([]int, n)
	for e := range pos {
		if partial && rng.Intn(4) == 0 {
			continue
		}
		pos[e] = 1 + rng.Intn(4*n)
	}
	return rankings.FromPositions(pos)
}

// scoreNested is the per-bucket nested-loop Score the flattened one
// replaced, kept verbatim as its oracle.
func scoreNested(p *Pairs, r *rankings.Ranking) int64 {
	n := p.N
	rs, ao := n, 0
	if p.rep.tiled {
		rs, ao = 2*n, n
	}
	switch p.rep.width {
	case 4:
		a := p.a32
		if p.rep.tiled {
			a = p.b32
		}
		return scorePlanesNested(n, int64(p.M), p.b32, a, p.t32, rs, ao, r)
	case 2:
		a := p.a16
		if p.rep.tiled {
			a = p.b16
		}
		return scorePlanesNested(n, int64(p.M), p.b16, a, p.t16, rs, ao, r)
	}
	a := p.a8
	if p.rep.tiled {
		a = p.b8
	}
	return scorePlanesNested(n, int64(p.M), p.b8, a, p.t8, rs, ao, r)
}

func scorePlanesNested[T Count](n int, m int64, bbuf, abuf, tied []T, rs, ao int, r *rankings.Ranking) int64 {
	var k int64
	bs := r.Buckets
	for i, bi := range bs {
		for xi, a := range bi {
			brow := bbuf[a*rs : a*rs+n]
			arow := abuf[a*rs+ao : a*rs+ao+n]
			// a tied with the rest of its bucket: CostTied = before + after.
			for _, b := range bi[xi+1:] {
				k += int64(brow[b]) + int64(arow[b])
			}
			// a strictly before later buckets: CostBefore = after + tied.
			if tied == nil {
				for _, bj := range bs[i+1:] {
					for _, b := range bj {
						k += m - int64(brow[b])
					}
				}
			} else {
				trow := tied[a*n : a*n+n]
				for _, bj := range bs[i+1:] {
					for _, b := range bj {
						k += int64(arow[b]) + int64(trow[b])
					}
				}
			}
		}
	}
	return k
}

// TestPairsScoreAllocatesOnce: Score's only allocation is the flattened
// consensus, on every layout.
func TestPairsScoreAllocatesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, partial := range []bool{false, true} {
		d := randomDataset(rng, 20, 200, partial)
		r := singletonHeavyRanking(rng, 200, false)
		for _, mode := range allModes {
			for _, p := range []*Pairs{NewPairsMode(d, mode), NewPairsUntiled(d, mode)} {
				if allocs := testing.AllocsPerRun(10, func() { p.Score(r) }); allocs > 1 {
					t.Errorf("%s: Score made %.0f allocations, want at most 1", p.Layout(), allocs)
				}
			}
		}
	}
}
