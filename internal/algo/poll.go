package algo

import (
	"context"
	"time"

	"rankagg/internal/core"
	"rankagg/internal/kendall"
	"rankagg/internal/rankings"
)

// pollEvery bounds how many hot-loop steps may pass between two context
// checks: after a cancel, a search returns within at most pollEvery steps
// (each a node expansion, placement scan, or power-iteration sweep) plus
// the step in flight.
const pollEvery = 1024

// searchPoll is the bounded-interval context check shared by the
// long-running searches (BnB, ExactBnB, BioConsert's descent, annealing,
// the MC power iteration). It checks the context on the first call and then
// once every pollEvery calls, caching the verdict once the context is done.
// A searchPoll is single-goroutine state; concurrent searchers (BioConsert's
// restart pool) each own one.
type searchPoll struct {
	ctx context.Context
	n   int
	err error
}

func newSearchPoll(ctx context.Context) *searchPoll { return &searchPoll{ctx: ctx} }

// stop reports whether the context is done, polling it at the bounded
// interval.
func (s *searchPoll) stop() bool {
	if s.err != nil {
		return true
	}
	s.n++
	if s.n&(pollEvery-1) != 1 {
		return false
	}
	s.err = s.ctx.Err()
	return s.err != nil
}

// stopped reports whether an earlier check already found the context done,
// without touching the context again (the cheap read for unwinding loops).
func (s *searchPoll) stopped() bool { return s.err != nil }

// stopNow is an immediate, unthrottled check for loop boundaries.
func (s *searchPoll) stopNow() bool {
	if s.err == nil {
		s.err = s.ctx.Err()
	}
	return s.err != nil
}

// Err returns the context error that stopped the search (nil while running).
func (s *searchPoll) Err() error { return s.err }

// outcome classifies how a search ended, per the core.Aggregator context
// contract:
// a deadline expiry keeps the incumbent (DeadlineHit), an explicit
// cancellation is surfaced as the error.
func (s *searchPoll) outcome() (deadlineHit bool, err error) {
	return classifyCtxErr(s.Err())
}

// pollOutcome is outcome for code paths whose polls are goroutine-local
// (worker pools): it classifies straight from the shared context.
func pollOutcome(ctx context.Context) (deadlineHit bool, err error) {
	return classifyCtxErr(ctx.Err())
}

// classifyCtxErr is the single source of the deadline-vs-cancel contract.
func classifyCtxErr(e error) (deadlineHit bool, err error) {
	switch e {
	case nil:
		return false, nil
	case context.DeadlineExceeded:
		return true, nil
	default:
		return false, e
	}
}

// defaultLimit narrows ctx with an algorithm's registered default time
// limit (BnB, ExactAlgorithm, ExactLPB) when the caller set none: a
// caller's opts.TimeLimit, which core.Run has already folded into ctx,
// wins. The returned cancel must be called (deferred) in either case.
func defaultLimit(ctx context.Context, opts core.RunOptions, limit time.Duration) (context.Context, context.CancelFunc) {
	if opts.TimeLimit > 0 || limit <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, limit)
}

// pairsFor returns the run's pair matrix: the caller's opts.Pairs, or one
// built from d for the algorithms that read it.
func pairsFor(d *rankings.Dataset, opts core.RunOptions) *kendall.Pairs {
	if opts.Pairs != nil {
		return opts.Pairs
	}
	return kendall.NewPairs(d)
}
