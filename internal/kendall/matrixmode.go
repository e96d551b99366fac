package kendall

import (
	"fmt"
	"math"
)

// Count constrains the storage widths a pair matrix can hold its counts
// in. Every count is a number of rankings, so int8 suffices whenever
// m ≤ MaxInt8Rankings and int16 whenever m ≤ MaxInt16Rankings; generic
// consumers (the fused placement scans of algo.searchState, the unanimity
// relation scan) instantiate once per width and run branch-free inside.
type Count interface{ ~int8 | ~int16 | ~int32 }

// MaxInt8Rankings is the largest ranking count the int8 backend can
// represent: a count never exceeds m, so m ≤ 127 makes overflow
// impossible. Pairs.Add promotes the storage to int16 before m would
// cross it.
const MaxInt8Rankings = 1<<7 - 1

// MaxInt16Rankings is the largest ranking count the int16 backend can
// represent: a count never exceeds m, so m ≤ 32767 makes overflow
// impossible. Pairs.Add promotes the storage to int32 before m would
// cross it.
const MaxInt16Rankings = 1<<15 - 1

// MatrixMode selects the pair-matrix storage representation at build
// time. The logical content — every Before/After/Tied read, Score,
// bound, and delta result — is identical across modes (property-tested
// against the int32 oracle); only the backing memory differs.
type MatrixMode int

const (
	// ModeAuto picks the leanest representation the dataset admits:
	// int8 counts when m ≤ MaxInt8Rankings (int16 up to MaxInt16Rankings),
	// and, when every ranking covers the whole universe, the tiled
	// derived layout — no stored tied plane, and each element's before
	// and after rows packed into one contiguous row-pair tile. It is the
	// default everywhere.
	ModeAuto MatrixMode = iota
	// ModeInt32 pins the historical layout — three n² int32 planes,
	// 12 bytes per element pair — regardless of dataset shape. It is
	// the oracle the compact backends are property-tested against.
	ModeInt32
	// ModeInt16 pins the count width at int16 (falling back to int32
	// width when m > MaxInt16Rankings, which the narrow counts cannot
	// represent) plus the tiled derived layout on complete datasets.
	// Unlike ModeAuto it never narrows to int8, so operators can cap the
	// promotion churn of datasets hovering around m = 127.
	ModeInt16
	// ModeInt8 pins the narrowest-width request explicitly: int8 counts
	// while m ≤ MaxInt8Rankings, with the same widening fallbacks as
	// ModeAuto. Today it selects exactly what ModeAuto would; the two
	// names exist so operators can pin the choice while auto stays free
	// to grow smarter policies.
	ModeInt8
)

// ParseMatrixMode parses the wire/flag spelling of a mode: "auto",
// "int32", "int16" or "int8".
func ParseMatrixMode(s string) (MatrixMode, error) {
	switch s {
	case "auto", "":
		return ModeAuto, nil
	case "int32":
		return ModeInt32, nil
	case "int16":
		return ModeInt16, nil
	case "int8":
		return ModeInt8, nil
	}
	return ModeAuto, fmt.Errorf("kendall: unknown matrix mode %q (want auto, int32, int16 or int8)", s)
}

// String returns the flag spelling of the mode.
func (m MatrixMode) String() string {
	switch m {
	case ModeInt32:
		return "int32"
	case ModeInt16:
		return "int16"
	case ModeInt8:
		return "int8"
	}
	return "auto"
}

// repr is a concrete storage layout: the count width in bytes (1, 2 or
// 4), whether the tied plane is derived rather than stored, and whether
// the before/after planes are packed into row-pair tiles. tiled implies
// derived implies Complete.
type repr struct {
	width   int // bytes per count: 1, 2 or 4
	derived bool
	tiled   bool
}

// resolve maps a mode against a dataset shape to the concrete layout a
// fresh build would allocate. Width is the narrowest the mode admits for
// m (a mode never picks a width that could overflow); on complete
// datasets every compact mode drops the tied plane and tiles the
// remaining two into row pairs.
func (m MatrixMode) resolve(rankingCount int, complete bool) repr {
	if m == ModeInt32 {
		return repr{width: 4}
	}
	r := repr{width: 1}
	if m == ModeInt16 || rankingCount > MaxInt8Rankings {
		r.width = 2
	}
	if rankingCount > MaxInt16Rankings {
		r.width = 4
	}
	r.derived = complete
	r.tiled = r.derived
	return r
}

// PredictBytes returns the backing bytes NewPairsMode would allocate for
// a dataset of n elements and m rankings with the given completeness —
// the number an admission control can check BEFORE any allocation
// happens (the serving layer's -max-elements guard). A universe whose
// matrix would not fit in an int64 byte count predicts math.MaxInt64.
func PredictBytes(mode MatrixMode, n, m int, complete bool) int64 {
	return mode.resolve(m, complete).bytes(n)
}

// bytes is the footprint of a concrete layout: 2 or 3 planes of n²
// counts at 1, 2 or 4 bytes each, saturating at math.MaxInt64. The tiled
// layout stores exactly the same counts as two planar planes (the tiles
// are a permutation), so it never pads and costs the same bytes.
func (r repr) bytes(n int) int64 {
	planes := int64(3)
	if r.derived {
		planes = 2
	}
	perPair := planes * int64(r.width)
	if n > 0 && int64(n) > math.MaxInt64/perPair/int64(n) {
		return math.MaxInt64
	}
	return perPair * int64(n) * int64(n)
}

// maxRankings returns the largest m the layout's width can count.
func (r repr) maxRankings() int {
	switch r.width {
	case 1:
		return MaxInt8Rankings
	case 2:
		return MaxInt16Rankings
	}
	return 1<<31 - 1
}
