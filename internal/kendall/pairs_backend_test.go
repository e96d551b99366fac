package kendall

import (
	"math"
	"math/rand"
	"testing"

	"rankagg/internal/rankings"
)

// TestBackendReadsMatchInt32Oracle is the backend-equivalence property:
// for random datasets (complete and partial), every storage mode answers
// every read — Before/Tied (and the after transpose), the cost accessors,
// MinPairCost, LowerBound, MajorityPrefers and Score — exactly like the
// int32 oracle, and Equal agrees across representations.
func TestBackendReadsMatchInt32Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 40; trial++ {
		m, n := 1+rng.Intn(8), 2+rng.Intn(18)
		d := randomDataset(rng, m, n, trial%2 == 1)
		oracle := NewPairsMode(d, ModeInt32)
		elems := make([]int, n)
		for i := range elems {
			elems[i] = i
		}
		cand := randomTiedRanking(rng, n, trial%3 == 0)
		for _, mode := range []MatrixMode{ModeAuto, ModeInt16, ModeInt8} {
			p := NewPairsMode(d, mode)
			if !p.Equal(oracle) || !oracle.Equal(p) {
				t.Fatalf("trial %d mode %v: Equal vs int32 oracle failed (layout %s)", trial, mode, p.Layout())
			}
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if p.Before(a, b) != oracle.Before(a, b) {
						t.Fatalf("mode %v: Before(%d,%d) = %d, oracle %d", mode, a, b, p.Before(a, b), oracle.Before(a, b))
					}
					if p.Tied(a, b) != oracle.Tied(a, b) {
						t.Fatalf("mode %v: Tied(%d,%d) = %d, oracle %d", mode, a, b, p.Tied(a, b), oracle.Tied(a, b))
					}
					if p.CostBefore(a, b) != oracle.CostBefore(a, b) || p.CostTied(a, b) != oracle.CostTied(a, b) {
						t.Fatalf("mode %v: costs at (%d,%d) diverge from oracle", mode, a, b)
					}
					if a != b {
						if p.MinPairCost(a, b) != oracle.MinPairCost(a, b) {
							t.Fatalf("mode %v: MinPairCost(%d,%d) diverges", mode, a, b)
						}
						if p.MajorityPrefers(a, b) != oracle.MajorityPrefers(a, b) {
							t.Fatalf("mode %v: MajorityPrefers(%d,%d) diverges", mode, a, b)
						}
					}
				}
			}
			if p.LowerBound(elems) != oracle.LowerBound(elems) {
				t.Fatalf("mode %v: LowerBound diverges", mode)
			}
			if p.Score(cand) != oracle.Score(cand) {
				t.Fatalf("mode %v: Score = %d, oracle %d", mode, p.Score(cand), oracle.Score(cand))
			}
		}
	}
}

// TestBackendLayoutSelection pins which representation each mode resolves
// to, and that Bytes reports the real backing (matching PredictBytes).
func TestBackendLayoutSelection(t *testing.T) {
	complete := randomDataset(rand.New(rand.NewSource(92)), 4, 10, false)
	partial := randomDataset(rand.New(rand.NewSource(93)), 4, 10, true)
	if countIncomplete(partial) == 0 {
		t.Fatal("partial fixture came out complete; bump the seed")
	}
	cases := []struct {
		name    string
		d       *rankings.Dataset
		mode    MatrixMode
		layout  string
		bytes   int64
		rowWide bool
	}{
		{"auto complete", complete, ModeAuto, "int8-tiled/20", 2 * 1 * 100, false},
		{"auto partial", partial, ModeAuto, "int8", 3 * 1 * 100, false},
		{"int8 complete", complete, ModeInt8, "int8-tiled/20", 2 * 1 * 100, false},
		{"int16 complete", complete, ModeInt16, "int16-tiled/20", 2 * 2 * 100, false},
		{"int16 partial", partial, ModeInt16, "int16", 3 * 2 * 100, false},
		{"int32 complete", complete, ModeInt32, "int32", 3 * 4 * 100, true},
		{"int32 partial", partial, ModeInt32, "int32", 3 * 4 * 100, true},
	}
	for _, tc := range cases {
		p := NewPairsMode(tc.d, tc.mode)
		if p.Layout() != tc.layout {
			t.Errorf("%s: layout = %s, want %s", tc.name, p.Layout(), tc.layout)
		}
		if p.Bytes() != tc.bytes {
			t.Errorf("%s: Bytes = %d, want %d", tc.name, p.Bytes(), tc.bytes)
		}
		if got := PredictBytes(tc.mode, tc.d.N, tc.d.M(), countIncomplete(tc.d) == 0); got != tc.bytes {
			t.Errorf("%s: PredictBytes = %d, want %d", tc.name, got, tc.bytes)
		}
		if p.Wide() != tc.rowWide {
			t.Errorf("%s: Wide = %v, want %v", tc.name, p.Wide(), tc.rowWide)
		}
		// The typed rows must read back the same counts the scalar
		// accessors report — tied nil exactly in derived mode.
		for a := 0; a < p.N; a++ {
			checkRows(t, p, a, tc.name)
		}
	}
}

func checkRows(t *testing.T, p *Pairs, a int, name string) {
	t.Helper()
	n := p.N
	read := func(b int) (bef, aft int64, tied int64, hasTied bool) {
		switch p.Width() {
		case 32:
			br, ar, tr := p.Rows32(a)
			if tr != nil {
				return int64(br[b]), int64(ar[b]), int64(tr[b]), true
			}
			return int64(br[b]), int64(ar[b]), 0, false
		case 16:
			br, ar, tr := p.Rows16(a)
			if tr != nil {
				return int64(br[b]), int64(ar[b]), int64(tr[b]), true
			}
			return int64(br[b]), int64(ar[b]), 0, false
		}
		br, ar, tr := p.Rows8(a)
		if tr != nil {
			return int64(br[b]), int64(ar[b]), int64(tr[b]), true
		}
		return int64(br[b]), int64(ar[b]), 0, false
	}
	for b := 0; b < n; b++ {
		bef, aft, tied, hasTied := read(b)
		if bef != int64(p.Before(a, b)) || aft != int64(p.Before(b, a)) {
			t.Fatalf("%s: typed rows diverge from accessors at (%d,%d)", name, a, b)
		}
		if hasTied == p.DerivedTied() {
			t.Fatalf("%s: tied row presence %v contradicts DerivedTied %v", name, hasTied, p.DerivedTied())
		}
		if hasTied && tied != int64(p.Tied(a, b)) {
			t.Fatalf("%s: tied row diverges at (%d,%d)", name, a, b)
		}
	}
}

// TestInt16OverflowPromotion is the overflow-safety property: growing an
// int16 matrix past m = MaxInt16Rankings promotes the storage to int32
// exactly at the crossing, and the promoted matrix stays byte-identical
// to a fresh int32 build of the same dataset (and keeps answering reads
// like it). The universe is tiny so the 32k-ranking build stays cheap.
func TestInt16OverflowPromotion(t *testing.T) {
	const n = 4
	rng := rand.New(rand.NewSource(94))
	base := make([]*rankings.Ranking, 0, MaxInt16Rankings)
	distinct := []*rankings.Ranking{
		rankings.New([]int{0, 1}, []int{2}, []int{3}),
		rankings.New([]int{3}, []int{2, 1}, []int{0}),
		rankings.New([]int{2}, []int{0}, []int{1, 3}),
	}
	for len(base) < MaxInt16Rankings {
		base = append(base, distinct[rng.Intn(len(distinct))])
	}
	d := rankings.NewDataset(n, base...)
	p := NewPairsMode(d, ModeInt16)
	if p.Wide() {
		t.Fatalf("matrix at m = %d should still be int16, got %s", MaxInt16Rankings, p.Layout())
	}
	// Sanity: some count actually sits at the int16 ceiling's scale.
	if p.M != MaxInt16Rankings {
		t.Fatalf("M = %d, want %d", p.M, MaxInt16Rankings)
	}

	extra := distinct[0]
	p.Add(extra)
	if !p.Wide() {
		t.Fatalf("Add crossing m = %d did not promote to int32 (layout %s)", MaxInt16Rankings, p.Layout())
	}
	grown := rankings.NewDataset(n, append(append([]*rankings.Ranking{}, base...), extra)...)
	fresh := NewPairsMode(grown, ModeInt32)
	// The promoted matrix is derived-tied (complete dataset) while the
	// fresh int32 pin stores all three planes — the counts must still be
	// identical pairwise, and Equal must say so across representations.
	if !p.Equal(fresh) || !fresh.Equal(p) {
		t.Fatal("promoted matrix is not identical to a fresh int32 build")
	}
	pb, pa, pt := materialize(p)
	fb, fa, ft := materialize(fresh)
	if !equalInt32(pb, fb) || !equalInt32(pa, fa) || !equalInt32(pt, ft) {
		t.Fatal("promoted planes diverge from the fresh int32 build")
	}
	// Keep growing: a second Add must stay on the widened path.
	p.Add(distinct[1])
	grown = rankings.NewDataset(n, append(append([]*rankings.Ranking{}, base...), extra, distinct[1])...)
	if !p.Equal(NewPairsMode(grown, ModeInt32)) {
		t.Fatal("post-promotion Add diverged from a fresh int32 build")
	}
}

// TestParseMatrixMode pins the flag spellings.
func TestParseMatrixMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want MatrixMode
		err  bool
	}{
		{"auto", ModeAuto, false},
		{"", ModeAuto, false},
		{"int32", ModeInt32, false},
		{"int16", ModeInt16, false},
		{"int8", ModeInt8, false},
		{"int64", ModeAuto, true},
	} {
		got, err := ParseMatrixMode(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseMatrixMode(%q) = %v, %v", tc.in, got, err)
		}
		if !tc.err && got.String() != tc.in && tc.in != "" {
			t.Errorf("String() roundtrip of %q = %q", tc.in, got.String())
		}
	}
}

// TestPredictBytesSaturates: a universe whose matrix byte count overflows
// int64 predicts math.MaxInt64, so an admission check against any budget
// rejects it (n = 2³² once wrapped to 0 bytes).
func TestPredictBytesSaturates(t *testing.T) {
	for _, n := range []int{1 << 32, 3_000_000_000, 100_000_000_000, math.MaxInt} {
		for _, mode := range []MatrixMode{ModeAuto, ModeInt32} {
			if got := PredictBytes(mode, n, 3, false); got != math.MaxInt64 {
				t.Errorf("PredictBytes(%s, %d) = %d, want math.MaxInt64", mode, n, got)
			}
		}
	}
	// The largest int32 universe that still fits is exact.
	n := 876_706_528 // ⌊√(MaxInt64/12)⌋
	if got, want := PredictBytes(ModeInt32, n, 3, false), 12*int64(n)*int64(n); got != want {
		t.Errorf("PredictBytes(int32, %d) = %d, want %d", n, got, want)
	}
	if got := PredictBytes(ModeInt32, n+1, 3, false); got != math.MaxInt64 {
		t.Errorf("PredictBytes(int32, %d) = %d, want math.MaxInt64", n+1, got)
	}
}
