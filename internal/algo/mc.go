package algo

import (
	"context"
	"fmt"

	"rankagg/internal/core"
	"rankagg/internal/rankings"
)

// MarkovChain implements the four Markov-chain rank aggregation methods of
// Dwork et al. [20]. States are elements; each variant defines transitions
// toward elements ranked better, and the consensus orders elements by
// descending stationary probability. The paper evaluates MC4 (Section 3.3,
// the "hybrid" class); MC1–MC3 are provided for completeness as the same
// reference defines them:
//
//	MC1: from i, move to j drawn uniformly from the multiset of elements
//	     ranked at least as high as i across all rankings.
//	MC2: pick an input ranking uniformly, then j uniformly among the
//	     elements it ranks at least as high as i.
//	MC3: pick a ranking and an element j uniformly; move if that ranking
//	     ranks j strictly higher, else stay.
//	MC4: pick j uniformly; move if a strict majority of rankings ranks j
//	     higher than i, else stay.
//
// Rankings with ties need no adaptation: "ranked at least as high" includes
// tied elements, and strict preferences ignore tied pairs. Elements with
// equal stationary probability are tied in the output (Table 1: MC4 "can
// produce ties: yes"). A teleportation factor makes every chain ergodic.
type MarkovChain struct {
	// Variant selects MC1..MC4. The zero value selects MC4 (the paper's
	// evaluated method).
	Variant int
	// Damping is the probability mass following the chain; the rest
	// teleports uniformly (ergodicity fix). Default 0.85.
	Damping float64
	// MaxIter bounds power iterations (default 5000).
	MaxIter int
	// Tol is the L1 convergence tolerance (default 1e-12).
	Tol float64
}

// MC4 is the paper's evaluated Markov-chain method.
type MC4 = MarkovChain

// Name implements core.Aggregator.
func (a *MarkovChain) Name() string { return fmt.Sprintf("MC%d", a.variant()) }

func (a *MarkovChain) variant() int {
	if a.Variant < 1 || a.Variant > 4 {
		return 4
	}
	return a.Variant
}

func (a *MarkovChain) params() (float64, int, float64) {
	d := a.Damping
	if d <= 0 || d >= 1 {
		d = 0.85
	}
	it := a.MaxIter
	if it <= 0 {
		it = 5000
	}
	tol := a.Tol
	if tol <= 0 {
		tol = 1e-12
	}
	return d, it, tol
}

// AggregateCtx implements core.Aggregator: the O(n²·m) chain
// construction polls the context per state row and the power iteration per
// sweep, so cancellation and deadlines propagate mid-iteration. On a
// deadline the ranking induced by the current stationary estimate is
// returned (DeadlineHit); before any iteration that estimate is uniform,
// i.e. everything tied.
func (a *MarkovChain) AggregateCtx(ctx context.Context, d *rankings.Dataset, _ core.RunOptions) (*core.RunResult, error) {
	poll := newSearchPoll(ctx)
	t := a.transitionMatrix(d, poll)
	var pi []float64
	iters := 0
	if poll.stopped() {
		// Chain construction was cut short: fall back to the uniform
		// starting estimate (a single all-tied bucket) below.
		pi = make([]float64, d.N)
	} else {
		pi, iters = stationary(t, a, poll)
	}
	deadlineHit, err := poll.outcome()
	if err != nil {
		return nil, err
	}
	// Rank by descending stationary probability; exactly equal
	// probabilities tie.
	n := d.N
	scores := make([]int64, n)
	for i, v := range pi {
		scores[i] = int64(v * 1e15)
	}
	return &core.RunResult{
		Consensus:   rankByScore(scores, false, true),
		DeadlineHit: deadlineHit,
		Stats:       core.SearchStats{Iterations: iters},
	}, nil
}

// transitionMatrix builds the row-stochastic chain of the selected variant,
// polling the context once per state row.
func (a *MarkovChain) transitionMatrix(d *rankings.Dataset, poll *searchPoll) [][]float64 {
	n := d.N
	pos := d.PositionMatrix()
	t := make([][]float64, n)
	for i := range t {
		t[i] = make([]float64, n)
	}
	if poll.stopNow() {
		return t
	}
	switch a.variant() {
	case 1:
		// w[i][j] = #rankings with pos(j) ≤ pos(i); row-normalize. j = i is
		// always counted (self-loop mass).
		for i := 0; i < n; i++ {
			if poll.stop() {
				return t
			}
			var total float64
			for j := 0; j < n; j++ {
				w := 0.0
				for _, p := range pos {
					if p[i] != 0 && p[j] != 0 && p[j] <= p[i] {
						w++
					}
				}
				t[i][j] = w
				total += w
			}
			normalizeRow(t[i], total, n, i)
		}
	case 2:
		// Average over rankings of the uniform distribution on the elements
		// ranked at least as high as i in that ranking.
		for i := 0; i < n; i++ {
			if poll.stop() {
				return t
			}
			used := 0
			for _, p := range pos {
				if p[i] == 0 {
					continue
				}
				var better []int
				for j := 0; j < n; j++ {
					if p[j] != 0 && p[j] <= p[i] {
						better = append(better, j)
					}
				}
				if len(better) == 0 {
					continue
				}
				used++
				share := 1 / float64(len(better))
				for _, j := range better {
					t[i][j] += share
				}
			}
			if used == 0 {
				t[i][i] = 1
				continue
			}
			inv := 1 / float64(used)
			for j := 0; j < n; j++ {
				t[i][j] *= inv
			}
		}
	case 3:
		// Move to uniform j with probability (#rankings preferring j)/m.
		m := float64(len(pos))
		for i := 0; i < n; i++ {
			if poll.stop() {
				return t
			}
			stay := 1.0
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				w := 0.0
				for _, p := range pos {
					if p[i] != 0 && p[j] != 0 && p[j] < p[i] {
						w++
					}
				}
				pr := w / (m * float64(n))
				t[i][j] = pr
				stay -= pr
			}
			t[i][i] = stay
		}
	default: // MC4
		for i := 0; i < n; i++ {
			if poll.stop() {
				return t
			}
			stay := 1.0
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				wins, losses := 0, 0
				for _, p := range pos {
					if p[i] == 0 || p[j] == 0 {
						continue
					}
					switch {
					case p[j] < p[i]:
						wins++
					case p[j] > p[i]:
						losses++
					}
				}
				if wins > losses {
					t[i][j] = 1 / float64(n)
					stay -= t[i][j]
				}
			}
			t[i][i] = stay
		}
	}
	return t
}

func normalizeRow(row []float64, total float64, n, i int) {
	if total == 0 {
		row[i] = 1
		return
	}
	inv := 1 / total
	for j := range row {
		row[j] *= inv
	}
}

// stationary runs damped power iteration on the row-stochastic matrix,
// polling the context once per iteration; it returns the stationary
// estimate and the number of iterations completed.
func stationary(t [][]float64, a *MarkovChain, poll *searchPoll) ([]float64, int) {
	damping, maxIter, tol := a.params()
	n := len(t)
	pi := make([]float64, n)
	next := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	base := (1 - damping) / float64(n)
	iters := 0
	for iter := 0; iter < maxIter; iter++ {
		if poll.stopNow() {
			break
		}
		iters++
		for j := range next {
			next[j] = base
		}
		for i := 0; i < n; i++ {
			mass := damping * pi[i]
			if mass == 0 {
				continue
			}
			row := t[i]
			for j := 0; j < n; j++ {
				if row[j] != 0 {
					next[j] += mass * row[j]
				}
			}
		}
		var diff float64
		for i := range pi {
			if d := next[i] - pi[i]; d > 0 {
				diff += d
			} else {
				diff -= d
			}
		}
		pi, next = next, pi
		if diff < tol {
			break
		}
	}
	return pi, iters
}

func init() {
	core.Register("MC1", func() core.Aggregator { return &MarkovChain{Variant: 1} })
	core.Register("MC2", func() core.Aggregator { return &MarkovChain{Variant: 2} })
	core.Register("MC3", func() core.Aggregator { return &MarkovChain{Variant: 3} })
	core.Register("MC4", func() core.Aggregator { return &MarkovChain{Variant: 4} })
}
