package kendall

import (
	"math/rand"
	"testing"

	"rankagg/internal/rankings"
)

// TestInt8OverflowPromotion is the overflow-safety property at the int8
// ceiling: growing a matrix past m = MaxInt8Rankings promotes the storage
// to int16 exactly at the crossing, the promoted matrix stays identical
// to a fresh int32 oracle build, and Compact converts it back to int8
// once a removal brings m under the cap again.
func TestInt8OverflowPromotion(t *testing.T) {
	const n = 5
	rng := rand.New(rand.NewSource(95))
	distinct := []*rankings.Ranking{
		rankings.New([]int{0, 1}, []int{2}, []int{3, 4}),
		rankings.New([]int{4}, []int{2, 1}, []int{0, 3}),
		rankings.New([]int{2}, []int{0, 3}, []int{1, 4}),
	}
	base := make([]*rankings.Ranking, 0, MaxInt8Rankings)
	for len(base) < MaxInt8Rankings {
		base = append(base, distinct[rng.Intn(len(distinct))])
	}
	d := rankings.NewDataset(n, base...)
	for _, mode := range []MatrixMode{ModeAuto, ModeInt8} {
		p := NewPairsMode(d, mode)
		if p.Width() != 8 || !p.Tiled() {
			t.Fatalf("mode %v at m = %d: layout %s, want int8 tiled", mode, MaxInt8Rankings, p.Layout())
		}
		baseBytes := p.Bytes()

		extra := distinct[0]
		p.Add(extra)
		if p.Width() != 16 {
			t.Fatalf("Add crossing m = %d did not promote to int16 (layout %s)", MaxInt8Rankings, p.Layout())
		}
		grown := rankings.NewDataset(n, append(append([]*rankings.Ranking{}, base...), extra)...)
		if !p.Equal(NewPairsMode(grown, ModeInt32)) {
			t.Fatal("promoted matrix is not identical to a fresh int32 build")
		}

		// Back under the cap: the width stays promoted (deltas never
		// demote) until Compact reclaims it.
		p.Remove(extra)
		if p.Width() != 16 {
			t.Fatalf("Remove demoted the width (layout %s); demotion is Compact's job", p.Layout())
		}
		q := p.Compact()
		if q == p {
			t.Fatal("Compact returned the promoted matrix unchanged")
		}
		if q.Width() != 8 || !q.Tiled() || q.Bytes() != baseBytes {
			t.Fatalf("Compact layout %s (%d bytes), want int8 tiled at %d bytes", q.Layout(), q.Bytes(), baseBytes)
		}
		if q.Version != p.Version {
			t.Fatalf("Compact changed Version: %d != %d", q.Version, p.Version)
		}
		if !q.Equal(NewPairsMode(d, ModeInt32)) || !q.Equal(p) {
			t.Fatal("compacted matrix diverges from the oracle")
		}
	}
	// ModeInt16 pins the width: m = 127 stays int16 and Compact agrees.
	p16 := NewPairsMode(d, ModeInt16)
	if p16.Width() != 16 {
		t.Fatalf("ModeInt16 layout %s, want int16", p16.Layout())
	}
	if p16.Compact() != p16 {
		t.Fatal("Compact of a minimal ModeInt16 matrix did not return the receiver")
	}
}

// TestCompactAfterPartialRoundtrip drives the other promotion axis: a
// partial Add materializes the tied plane (un-tiling the row pairs), the
// matching Remove restores completeness, and Compact drops the plane and
// re-tiles — returning Bytes() to the pre-promotion footprint with the
// content still equal to the int32 oracle of the final dataset.
func TestCompactAfterPartialRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	for trial := 0; trial < 25; trial++ {
		m, n := 1+rng.Intn(8), 2+rng.Intn(20)
		d := randomDataset(rng, m, n, false)
		for _, mode := range allModes {
			p := NewPairsMode(d, mode)
			baseBytes := p.Bytes()
			baseLayout := p.Layout()

			partial := randomTiedRanking(rng, n, true)
			if partial.Len() == n {
				continue // rare: the random subset came out full
			}
			p.Add(partial)
			if p.DerivedTied() {
				t.Fatalf("mode %v: partial Add left the tied plane derived", mode)
			}
			p.Remove(partial)
			if !p.Complete {
				t.Fatalf("mode %v: remove did not restore completeness", mode)
			}

			q := p.Compact()
			if mode == ModeInt32 {
				if q != p {
					t.Fatal("ModeInt32 Compact must be a no-op")
				}
				continue
			}
			if q == p || q.Bytes() != baseBytes || q.Layout() != baseLayout {
				t.Fatalf("mode %v: Compact gave %s (%d bytes), want %s (%d bytes)",
					mode, q.Layout(), q.Bytes(), baseLayout, baseBytes)
			}
			assertIdentical(t, q, NewPairsMode(d, ModeInt32), "compacted vs int32 oracle")
			// The promoted source must be untouched (copy-on-write contract).
			if p.DerivedTied() || p.Tiled() {
				t.Fatalf("mode %v: Compact mutated its receiver (layout %s)", mode, p.Layout())
			}
		}
	}
}

// TestCompactUntiled pins that the planar derived layout (the pre-tiling
// compact backend, still constructible via NewPairsUntiled) re-tiles under
// Compact without changing bytes or content.
func TestCompactUntiled(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	d := randomDataset(rng, 6, 17, false)
	p := NewPairsUntiled(d, ModeInt16)
	if p.Layout() != "int16-derived" {
		t.Fatalf("NewPairsUntiled layout = %s, want int16-derived", p.Layout())
	}
	q := p.Compact()
	if !q.Tiled() || q.Bytes() != p.Bytes() {
		t.Fatalf("Compact of the untiled layout gave %s (%d bytes), want tiled at %d bytes",
			q.Layout(), q.Bytes(), p.Bytes())
	}
	assertIdentical(t, q, NewPairsMode(d, ModeInt32), "re-tiled vs oracle")
	assertIdentical(t, p, NewPairsMode(d, ModeInt32), "untiled source unchanged")
}

// TestCompactFreshIsNoop asserts a fresh build of every mode is already
// minimal: Compact returns the receiver itself.
func TestCompactFreshIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	for _, partial := range []bool{false, true} {
		d := randomDataset(rng, 5, 12, partial)
		for _, mode := range allModes {
			p := NewPairsMode(d, mode)
			if p.Compact() != p {
				t.Errorf("mode %v partial=%v: fresh build not minimal (layout %s)", mode, partial, p.Layout())
			}
		}
	}
}
