package kendall

import (
	"testing"

	"rankagg/internal/rankings"
)

// FuzzDist checks the log-linear G on two bucket orders with ties decoded
// from the fuzz input (see decodeRankings): it must equal the O(n²)
// reference, be symmetric and vanish on identical rankings, and
// DistPositions must give the same answer on universe-sized and on compact
// position lists. Score over the one-ranking dataset must agree too.
func FuzzDist(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		n, r, s := decodeRankings(data)
		g := DistNaive(r, s, n)
		if got := Dist(r, s, n); got != g {
			t.Fatalf("Dist(%v, %v) = %d, DistNaive = %d", r, s, got, g)
		}
		if got := Dist(s, r, n); got != g {
			t.Fatalf("Dist(%v, %v) = %d, but Dist(%v, %v) = %d", s, r, got, r, s, g)
		}
		if got := Dist(r, r, n); got != 0 {
			t.Fatalf("Dist(%v, %v) = %d, want 0", r, r, got)
		}
		pr, ps := r.Positions(n), s.Positions(n)
		if got := DistPositions(pr, ps); got != g {
			t.Fatalf("dense DistPositions = %d, want %d", got, g)
		}
		if got := DistPositions(compactPositions(pr, s)); got != g {
			t.Fatalf("DistPositions compacted over %v = %d, want %d", s, got, g)
		}
		if got := DistPositions(compactPositions(ps, r)); got != g {
			t.Fatalf("DistPositions compacted over %v = %d, want %d", r, got, g)
		}
		if got := Score(r, rankings.NewDataset(n, s)); got != g {
			t.Fatalf("Score(%v, {%v}) = %d, want %d", r, s, got, g)
		}
	})
}

// decodeRankings reads a universe size and two rankings from fuzz bytes.
// Byte 0 gives n = 1 + b%64; the next n bytes key the elements of r and the
// n after them those of s, a missing byte reading as 0. Key k%16 == 0
// leaves the element out of the ranking; otherwise equal keys share a
// bucket and smaller keys rank first, so most inputs carry ties.
func decodeRankings(data []byte) (n int, r, s *rankings.Ranking) {
	if len(data) == 0 {
		return 1, &rankings.Ranking{}, &rankings.Ranking{}
	}
	n = 1 + int(data[0])%64
	key := func(i int) int {
		if i < len(data) {
			return int(data[i]) % 16
		}
		return 0
	}
	ranking := func(off int) *rankings.Ranking {
		var buckets [16][]int
		for e := 0; e < n; e++ {
			k := key(off + e)
			buckets[k] = append(buckets[k], e)
		}
		out := &rankings.Ranking{}
		for _, b := range buckets[1:] {
			if len(b) > 0 {
				out.Buckets = append(out.Buckets, b)
			}
		}
		return out
	}
	return n, ranking(1), ranking(1 + n)
}
