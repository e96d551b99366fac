package eval

import (
	"fmt"
	"math"

	_ "rankagg/internal/approx" // register the matrix-free tier
	"rankagg/internal/core"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// ApproxQuality summarizes the fidelity of one matrix-free approximation
// algorithm to an exact-tier reference across a dataset collection: the
// score ratio K(approx,R)/K(ref,R) per dataset (1 = as good as the
// reference, below 1 = better) and the normalized generalized Kendall
// distance between the two consensus rankings.
type ApproxQuality struct {
	Algorithm string
	MeanRatio float64 // mean score ratio over the collection
	MaxRatio  float64 // worst dataset's ratio
	MeanDist  float64 // mean G(approx, ref) / (n(n-1)/2) ∈ [0, 1]
	// PctMatched is the share of datasets where the approximation reached
	// (or beat) the reference score.
	PctMatched float64
	Datasets   int
}

// ApproxOptions configures CompareApprox.
type ApproxOptions struct {
	// Reference is the exact-tier algorithm approximations are measured
	// against (default "BioConsert"). It must not be matrix-free.
	Reference string
	// Algorithms lists the matrix-free algorithms under evaluation
	// (default lehmer, avgrank, scores).
	Algorithms []string
}

// CompareApprox runs the matrix-free approximation tier and an exact-tier
// reference over a collection of complete datasets and reports, per
// approximation algorithm, how close its consensus quality lands to the
// reference's. The pair matrix is built once per dataset and shared by the
// reference run and all scoring, so the approximations themselves still
// never touch one.
func CompareApprox(datasets []*rankings.Dataset, opt ApproxOptions) ([]ApproxQuality, error) {
	refName := opt.Reference
	if refName == "" {
		refName = "BioConsert"
	}
	ref, err := core.New(refName)
	if err != nil {
		return nil, err
	}
	if core.IsMatrixFree(ref) {
		return nil, fmt.Errorf("eval: reference %s is matrix-free; pick an exact-tier algorithm", refName)
	}
	names := opt.Algorithms
	if len(names) == 0 {
		names = []string{"lehmer", "avgrank", "scores"}
	}
	algos := make([]core.Aggregator, len(names))
	for i, name := range names {
		a, err := core.New(name)
		if err != nil {
			return nil, err
		}
		if !core.IsMatrixFree(a) {
			return nil, fmt.Errorf("eval: %s is not matrix-free; CompareApprox evaluates the approximation tier only", name)
		}
		algos[i] = a
	}

	out := make([]ApproxQuality, len(algos))
	for i, a := range algos {
		out[i] = ApproxQuality{Algorithm: a.Name()}
	}
	for _, d := range datasets {
		if err := core.CheckInput(d); err != nil {
			return nil, fmt.Errorf("eval: reference tier needs complete datasets: %w", err)
		}
		pairs := kendall.NewPairs(d)
		refCons, err := aggregate(ref, d, pairs)
		if err != nil {
			return nil, fmt.Errorf("eval: reference %s: %w", refName, err)
		}
		refScore := pairs.Score(refCons)
		maxPairs := float64(d.N) * float64(d.N-1) / 2
		for i, a := range algos {
			cons, err := aggregate(a, d, nil)
			if err != nil {
				return nil, fmt.Errorf("eval: %s: %w", a.Name(), err)
			}
			score := pairs.Score(cons)
			ratio := 1.0
			switch {
			case refScore > 0:
				ratio = float64(score) / float64(refScore)
			case score > 0:
				ratio = math.Inf(1)
			}
			q := &out[i]
			q.Datasets++
			q.MeanRatio += ratio
			if ratio > q.MaxRatio {
				q.MaxRatio = ratio
			}
			if maxPairs > 0 {
				q.MeanDist += float64(kendall.Dist(cons, refCons, d.N)) / maxPairs
			}
			if score <= refScore {
				q.PctMatched++
			}
		}
	}
	for i := range out {
		if n := float64(out[i].Datasets); n > 0 {
			out[i].MeanRatio /= n
			out[i].MeanDist /= n
			out[i].PctMatched = 100 * out[i].PctMatched / n
		}
	}
	return out, nil
}
