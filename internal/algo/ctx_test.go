package algo

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"rankagg/internal/core"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// TestCtxCancelMidSearch drives each ctx-aware search deep into an
// instance it cannot finish and cancels mid-descent: the call must return
// context.Canceled within a tight bound. Instance sizes are chosen so the
// uncancelled search would run for a very long time (exponential DFS,
// hundreds of sweeps), so a prompt return proves the poll fires.
func TestCtxCancelMidSearch(t *testing.T) {
	cases := []struct {
		name string
		m, n int
		run  func(ctx context.Context, d *dsWithPairs) error
	}{
		{"BnB", 7, 40, func(ctx context.Context, d *dsWithPairs) error {
			_, err := core.Run(ctx, &BnB{}, d.d, core.RunOptions{Pairs: d.p})
			return err
		}},
		{"ExactBnB", 7, 40, func(ctx context.Context, d *dsWithPairs) error {
			_, err := core.Run(ctx, &ExactBnB{Preprocess: true}, d.d, core.RunOptions{Pairs: d.p})
			return err
		}},
		{"ExactLPB", 7, 34, func(ctx context.Context, d *dsWithPairs) error {
			// Above the default cap so the LPB model is large enough (~3s
			// uncancelled) that the branch & bound is still mid-search when
			// the cancel fires; the poll is per node and per cut round.
			_, err := core.Run(ctx, &ExactLPB{MaxElements: 40}, d.d, core.RunOptions{Pairs: d.p})
			return err
		}},
		{"BioConsert", 25, 400, func(ctx context.Context, d *dsWithPairs) error {
			_, err := core.Run(ctx, &BioConsert{}, d.d, core.RunOptions{Pairs: d.p})
			return err
		}},
		{"Anneal", 10, 400, func(ctx context.Context, d *dsWithPairs) error {
			_, err := core.Run(ctx, &Anneal{}, d.d, core.RunOptions{Pairs: d.p})
			return err
		}},
		{"MC4", 7, 500, func(ctx context.Context, d *dsWithPairs) error {
			_, err := core.Run(ctx, &MarkovChain{}, d.d, core.RunOptions{})
			return err
		}},
		{"KwikSortMin", 7, 200, func(ctx context.Context, d *dsWithPairs) error {
			// Enough independent runs (each one poll interval) to outlast
			// the cancel by orders of magnitude if the pool ignored ctx.
			_, err := core.Run(ctx, &KwikSort{Runs: 200000}, d.d, core.RunOptions{Pairs: d.p})
			return err
		}},
		{"RepeatChoiceMin", 20, 200, func(ctx context.Context, d *dsWithPairs) error {
			_, err := core.Run(ctx, &RepeatChoice{Runs: 200000}, d.d, core.RunOptions{Pairs: d.p})
			return err
		}},
		{"Ailon3/2", 5, 8, func(ctx context.Context, d *dsWithPairs) error {
			// A small relaxation solves well before the cancel; the
			// roundings after it must poll, one per rounding.
			_, err := core.Run(ctx, &Ailon{}, d.d, core.RunOptions{Pairs: d.p, Restarts: math.MaxInt32})
			return err
		}},
		{"BnBBeam", 7, 300, func(ctx context.Context, d *dsWithPairs) error {
			_, err := core.Run(ctx, &BnBBeam{Width: 32}, d.d, core.RunOptions{Pairs: d.p})
			return err
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			ds := randomTiedDataset(rng, tc.m, tc.n)
			dp := &dsWithPairs{d: ds, p: kendall.NewPairs(ds)}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(30 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			err := tc.run(ctx, dp)
			elapsed := time.Since(start)
			if elapsed > 3*time.Second {
				t.Fatalf("cancelled search returned after %v — polling too coarse", elapsed)
			}
			if err == nil {
				// Legitimate: the search reached a sound conclusion before
				// (or despite) the cancel — e.g. ExactLPB's root prune stays
				// valid with however many cuts existed when ctx fired.
				t.Logf("completed soundly in %v around the cancellation", elapsed)
				return
			}
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

type dsWithPairs struct {
	d *rankings.Dataset
	p *kendall.Pairs
}

// TestCtxDeadlineKeepsIncumbent checks the uniform deadline contract on the
// searches that hold an incumbent: DeadlineHit is set, Proved is not, and
// the returned consensus is complete.
func TestCtxDeadlineKeepsIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := randomTiedDataset(rng, 6, 16)
	p := kendall.NewPairs(d)
	runs := []struct {
		name string
		run  func(ctx context.Context) (*core.RunResult, error)
	}{
		{"BnB", func(ctx context.Context) (*core.RunResult, error) {
			return core.Run(ctx, &BnB{}, d, core.RunOptions{Pairs: p, TimeLimit: time.Nanosecond})
		}},
		{"ExactBnB", func(ctx context.Context) (*core.RunResult, error) {
			return core.Run(ctx, &ExactBnB{Preprocess: true}, d, core.RunOptions{Pairs: p, TimeLimit: time.Nanosecond})
		}},
	}
	for _, tc := range runs {
		res, err := tc.run(context.Background())
		if err != nil {
			t.Fatalf("%s: deadline must keep the incumbent, got error %v", tc.name, err)
		}
		if res.Proved {
			t.Logf("%s: solved before the first poll (acceptable)", tc.name)
			continue
		}
		if !res.DeadlineHit {
			t.Errorf("%s: not proved and no DeadlineHit", tc.name)
		}
		checkConsensus(t, tc.name, d, res.Consensus)
	}
}

// TestAilonDeadlineReporting pins the satellite fix: Ailon3/2 under an
// expired deadline no longer fails when a relaxation is in hand (it rounds
// it, reporting DeadlineHit), and returns the documented TimeLimitError
// only when the deadline fires before any LP solve completed.
func TestAilonDeadlineReporting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := randomTiedDataset(rng, 5, 20)
	p := kendall.NewPairs(d)
	// Already-expired deadline: no relaxation can complete.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := core.Run(ctx, &Ailon{}, d, core.RunOptions{Pairs: p})
	if _, ok := err.(*TimeLimitError); !ok {
		t.Fatalf("expired-before-solve must yield *TimeLimitError, got %v", err)
	}
	// Generous deadline: normal run, no deadline report.
	res, err := core.Run(context.Background(), &Ailon{}, d, core.RunOptions{Pairs: p, TimeLimit: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineHit {
		t.Error("uncut run must not report DeadlineHit")
	}
	checkConsensus(t, "Ailon3/2", d, res.Consensus)
}
