// Package rankagg is a Go library for rank aggregation with ties,
// reproducing Brancotte et al., "Rank aggregation with ties: Experiments
// and Analysis", PVLDB 8(11), 2015.
//
// Given a set of input rankings with ties (bucket orders) over the same
// elements, the library computes consensus rankings minimizing the
// generalized Kemeny score (the sum of generalized Kendall-τ distances to
// the inputs, where a pair costs one when it is inverted or tied in exactly
// one of the two rankings).
//
// # Quick start
//
// A Session wraps one dataset, owns its shared resources (the O(m·n²) pair
// matrix, built once and cached), and runs any registered algorithm under a
// context with cancellation and deadlines:
//
//	u := rankagg.NewUniverse()
//	r1, _ := rankagg.ParseRanking("[{A},{D},{B,C}]", u)
//	r2, _ := rankagg.ParseRanking("[{A},{B,C},{D}]", u)
//	r3, _ := rankagg.ParseRanking("[{D},{A,C},{B}]", u)
//	d := rankagg.FromRankings(r1, r2, r3)
//	sess, _ := rankagg.NewSession(d)
//	res, _ := sess.Run(context.Background(), "BioConsert")
//	fmt.Println(u.Format(res.Consensus), res.Score, res.Elapsed)
//
// Result carries the generalized Kemeny score, whether optimality was
// proved (exact methods), whether a deadline cut the search (the incumbent
// is then returned), and search statistics. Session.Run accepts functional
// options: WithTimeLimit, WithWorkers, WithSeed, WithRestarts, WithPairs,
// WithMatrixMode.
//
// Aggregate and AggregateWithPairs remain as thin one-shot conveniences
// over the same machinery for callers that need neither cancellation nor
// the rich result.
//
// # Algorithms
//
// Every algorithm of the paper's Table 1 is available through Aggregate /
// NewAggregator by its paper name: BioConsert, FaginSmall, FaginLarge,
// KwikSort, KwikSortMin, BordaCount, CopelandMethod, MEDRank(0.5),
// MEDRank(0.7), MC4, Pick-a-Perm, RepeatChoice, RepeatChoiceMin, Chanas,
// ChanasBoth, BnB, BnBBeam, Ailon3/2, and the exact methods ExactAlgorithm
// (ties-aware branch & bound) and ExactLPB (the paper's Section 4.2 linear
// pseudo-boolean program).
//
// Datasets whose rankings cover different element sets must first be
// normalized with Unify, UnifyBroken, or Project (Section 5.1 of the
// paper).
//
// # Approximation tier
//
// Three matrix-free algorithms — lehmer (Lehmer-code median aggregation),
// avgrank and scores (summed average-rank aggregation, differing in how
// they charge elements missing from a ranking) — run in O(m·n log n) with
// O(n) working memory per ranking and never build the O(n²) pair matrix,
// so they keep working on universes far past the matrix tier's ceiling.
// They also accept incomplete datasets (top-k lists) directly — and
// truncation pays: a length-L list encodes over the compacted id space of
// its present elements in O(L log L), so a toplists dataset costs
// O(Σ L_i log L_i), not O(m·n log n). Encode passes shard across the
// WithWorkers budget with a worker-count-invariant consensus. Session.Run
// reports their results with Result.Approx set; MatrixFree tells callers
// which tier a name belongs to, and ApproxDefault picks the variant best
// suited to a dataset's shape.
//
// ApproxSession is the tier's stateful counterpart to Session: it holds
// delta-maintainable aggregation state (per-element Lehmer coordinate
// multisets, score totals) so AddRanking/RemoveRanking/ApplyDelta fold a
// ranking in or out in O(L·(log L + log m)) and the next Run reads the
// consensus straight from the maintained state instead of re-encoding the
// dataset. Unlike Session it accepts incomplete datasets, including
// partial-ranking deltas on them.
package rankagg

import (
	"context"
	"io"

	"rankagg/internal/approx"
	"rankagg/internal/core"
	"rankagg/internal/eval"
	"rankagg/internal/kendall"
	"rankagg/internal/normalize"
	"rankagg/internal/rankings"
)

// Re-exported core types. A Ranking is a bucket order: elements in the same
// bucket are tied. A Dataset is a set of input rankings over a universe of
// N elements. A Universe maps element names to the dense integer IDs the
// algorithms work with.
type (
	// Ranking is a ranking with ties (bucket order).
	Ranking = rankings.Ranking
	// Dataset is a set of input rankings to aggregate.
	Dataset = rankings.Dataset
	// Universe maps element names to dense IDs.
	Universe = rankings.Universe
	// Aggregator is the algorithm interface.
	Aggregator = core.Aggregator
	// ExactAggregator is implemented by methods that can prove optimality.
	ExactAggregator = core.ExactAggregator
	// Pairs is the pairwise disagreement-count matrix of a dataset.
	Pairs = kendall.Pairs
	// MatrixMode selects the pair matrix's storage representation
	// (MatrixAuto, MatrixInt32, MatrixInt16, MatrixInt8); the logical
	// counts are identical across modes, only the backing memory differs.
	MatrixMode = kendall.MatrixMode
	// Features summarizes a dataset for algorithm recommendation.
	Features = eval.Features
	// Recommendation is an algorithm suggestion with its rationale.
	Recommendation = eval.Recommendation
)

// NewUniverse returns an empty name↔ID mapping.
func NewUniverse() *Universe { return rankings.NewUniverse() }

// NewRanking builds a ranking from buckets of element IDs.
func NewRanking(buckets ...[]int) *Ranking { return rankings.New(buckets...) }

// FromPermutation builds a ranking with singleton buckets.
func FromPermutation(perm []int) *Ranking { return rankings.FromPermutation(perm) }

// ParseRanking parses "[{A},{B,C}]" or "A > B=C" notation, resolving names
// in u.
func ParseRanking(s string, u *Universe) (*Ranking, error) { return rankings.ParseRanking(s, u) }

// NewDataset builds a dataset over a universe of n elements.
func NewDataset(n int, rks ...*Ranking) *Dataset { return rankings.NewDataset(n, rks...) }

// FromRankings builds a dataset sized to its rankings' largest element ID.
func FromRankings(rks ...*Ranking) *Dataset { return rankings.FromRankings(rks...) }

// ReadDataset parses one ranking per line (bracket or compact notation,
// '#' comments) and returns the dataset with its universe.
func ReadDataset(r io.Reader) (*Dataset, *Universe, error) { return rankings.ParseDataset(r) }

// WriteDataset writes one ranking per line in bracket notation.
func WriteDataset(w io.Writer, d *Dataset, u *Universe) error {
	return rankings.WriteDataset(w, d, u)
}

// Aggregate runs the named algorithm (see package doc for names) on d.
//
// It is a thin convenience over the run Session.Run makes, for one-shot
// aggregations: no cancellation, no rich Result, and the pair matrix is
// built (and dropped) per call. When running several algorithms on one
// dataset, or when a deadline/score/optimality report is needed, use
// NewSession + Run.
func Aggregate(name string, d *Dataset) (*Ranking, error) { return AggregateWithPairs(name, d, nil) }

// AggregateWithPairs runs the named algorithm on d, reusing a prebuilt pair
// matrix when the algorithm reads one (all the pairwise methods do);
// the others ignore it.
//
// Building the matrix costs O(m·n²) — usually the dominant term — so when
// several algorithms run on the SAME dataset, build it once with NewPairs
// and pass it to every call. The matrix is immutable and safe for
// concurrent readers: one matrix may serve parallel aggregations. p must be
// the pair matrix of d (pass nil to let the algorithm build its own); a
// matrix built from an incomplete dataset cannot be, and is rejected with
// the same error as an incomplete d.
//
// It is a thin convenience over the run Session.Run makes, and Session
// does the build-once bookkeeping automatically (it caches the matrix
// after the first run); prefer a Session when the matrix threading is not
// already in place.
func AggregateWithPairs(name string, d *Dataset, p *Pairs) (*Ranking, error) {
	a, err := core.New(name)
	if err != nil {
		return nil, err
	}
	rr, err := core.Run(context.Background(), a, d, core.RunOptions{Pairs: p})
	if err != nil {
		return nil, err
	}
	return rr.Consensus, nil
}

// NewAggregator constructs a registered algorithm by its paper name.
func NewAggregator(name string) (Aggregator, error) { return core.New(name) }

// Algorithms lists the registered algorithm names.
func Algorithms() []string { return core.Names() }

// MatrixFree reports whether the named registered algorithm belongs to the
// matrix-free approximation tier (lehmer, avgrank, scores): its runs never
// build or read a pair matrix, it accepts incomplete datasets directly,
// and Session.Run takes the matrix-free path for it (see Result.Approx).
// Unknown names report false.
func MatrixFree(name string) bool {
	a, err := core.New(name)
	return err == nil && core.IsMatrixFree(a)
}

// ApproxDefault picks the approximation-tier algorithm for a dataset's
// shape: "lehmer" when every ranking is a strict (possibly partial)
// permutation, "avgrank" when ties are present. Admission routers use it
// to substitute an algorithm when diverting an over-budget request to the
// matrix-free tier.
func ApproxDefault(d *Dataset) string { return approx.Default(d) }

// Dist returns the generalized Kendall-τ distance G(r, s) over a universe
// of n elements (Section 2.2 of the paper, unit untying cost).
func Dist(r, s *Ranking, n int) int64 { return kendall.Dist(r, s, n) }

// Score returns the generalized Kemeny score K(r, R) = Σ G(r, s).
func Score(r *Ranking, d *Dataset) int64 { return kendall.Score(r, d) }

// Tau returns the Kendall-τ correlation extended to ties (equation 4).
func Tau(r, s *Ranking, n int) float64 { return kendall.Tau(r, s, n) }

// Similarity returns the intrinsic correlation s(R) of a dataset
// (equation 5): the average τ over all pairs of input rankings.
func Similarity(d *Dataset) float64 { return kendall.Similarity(d) }

// Matrix storage modes (see MatrixMode): auto picks the leanest backend
// the dataset admits — int8 counts when m ≤ 127 (int16 up to 32767), no
// stored tied plane on complete datasets (tied = m − before − after), and
// row-pair tiles on the derived layouts — while int32 pins the full
// three-plane layout, and int16/int8 pin a compact width floor.
const (
	MatrixAuto  = kendall.ModeAuto
	MatrixInt32 = kendall.ModeInt32
	MatrixInt16 = kendall.ModeInt16
	MatrixInt8  = kendall.ModeInt8
)

// ParseMatrixMode parses the flag/wire spelling of a matrix mode:
// "auto", "int32", "int16" or "int8".
func ParseMatrixMode(s string) (MatrixMode, error) { return kendall.ParseMatrixMode(s) }

// PredictMatrixBytes returns the backing bytes the pair matrix of a
// dataset with n elements and m rankings (complete or not) would occupy
// under the given mode — without allocating anything, so admission
// controls can budget memory before a build.
func PredictMatrixBytes(mode MatrixMode, n, m int, complete bool) int64 {
	return kendall.PredictBytes(mode, n, m, complete)
}

// PredictApproxBytes returns the bytes a served matrix-free request
// allocates for a universe of n elements beyond what grows with the
// rankings themselves — the O(n) state, consensus and consensus JSON a
// tiny request declaring a huge n would make the approximation tier
// allocate — so admission controls can budget it the way
// PredictMatrixBytes budgets the exact tier.
func PredictApproxBytes(n int) int64 { return approx.PredictBytes(n) }

// NewPairs computes the pairwise disagreement counts of a dataset in the
// default MatrixAuto representation.
func NewPairs(d *Dataset) *Pairs { return kendall.NewPairs(d) }

// NewPairsMode is NewPairs with an explicit storage representation.
func NewPairsMode(d *Dataset, mode MatrixMode) *Pairs { return kendall.NewPairsMode(d, mode) }

// Gap is the paper's quality measure (equation 6): K(c,R)/K(c*,R) − 1.
func Gap(score, optimum int64) float64 { return eval.Gap(score, optimum) }

// Project removes elements absent from at least one ranking, returning the
// projected dataset and the new→old / old→new ID mappings.
func Project(d *Dataset) (*Dataset, []int, []int) { return normalize.Projection(d) }

// Unify appends a unification bucket with each ranking's missing elements.
func Unify(d *Dataset) (*Dataset, []int, []int) { return normalize.Unification(d) }

// UnifyBroken unifies and then breaks every bucket into singletons.
func UnifyBroken(d *Dataset) (*Dataset, []int, []int) { return normalize.UnifyBroken(d) }

// TopK truncates each ranking after its k best elements (whole buckets).
func TopK(d *Dataset, k int) *Dataset { return normalize.TopK(d, k) }

// SubUniverse renames a compacted dataset's IDs from the original universe.
func SubUniverse(u *Universe, toOld []int) *Universe { return normalize.SubUniverse(u, toOld) }

// ExtractFeatures measures the dataset properties driving algorithm choice
// (size, similarity, large-tie presence — Section 7 of the paper).
func ExtractFeatures(d *Dataset) Features { return eval.ExtractFeatures(d) }

// Recommend applies the paper's Section 7.4 guidance to dataset features.
func Recommend(f Features, needOptimal, timeCritical bool) []Recommendation {
	return eval.Recommend(f, needOptimal, timeCritical)
}

// FromScores builds a ranking with ties from per-element scores: higher
// scores rank first; elements within eps of a bucket's top score are tied.
func FromScores(scores map[int]float64, eps float64) *Ranking {
	return rankings.FromScores(scores, eps)
}

// ParseScoreCSV reads "source,item,score" rows and builds one ranking with
// ties per source (items within eps of a score level are tied). The result
// is raw — normalize before aggregating.
func ParseScoreCSV(r io.Reader, eps float64) (*Dataset, *Universe, error) {
	return rankings.ParseScoreCSV(r, eps)
}

// KUnify is the intermediate standardization of the paper's Section 8:
// elements appearing in fewer than k rankings are removed and the rest are
// unified. k = 1 is Unify; k = m is Project.
func KUnify(d *Dataset, k int) (*Dataset, []int, []int) {
	return normalize.KUnification(d, k)
}

// Footrule returns Spearman's footrule distance generalized to ties
// (doubled so it stays integral; see internal/kendall.Footrule).
func Footrule(r, s *Ranking, n int) int64 { return kendall.Footrule(r, s, n) }

// FootruleScore is Σ_{s∈R} Footrule(r, s).
func FootruleScore(r *Ranking, d *Dataset) int64 { return kendall.FootruleScore(r, d) }
