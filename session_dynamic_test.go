package rankagg

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"rankagg/internal/core"
	"rankagg/internal/gen"
	"rankagg/internal/kendall"
)

// completeRandomRanking draws a complete tied ranking over n elements.
func completeRandomRanking(rng *rand.Rand, n int) *Ranking {
	pos := make([]int, n)
	for e := 0; e < n; e++ {
		pos[e] = 1 + rng.Intn(1+n/2)
	}
	return rankingFromPositions(pos)
}

func rankingFromPositions(pos []int) *Ranking {
	byPos := make(map[int][]int)
	maxP := 0
	for e, p := range pos {
		byPos[p] = append(byPos[p], e)
		if p > maxP {
			maxP = p
		}
	}
	var buckets [][]int
	for p := 1; p <= maxP; p++ {
		if b, ok := byPos[p]; ok {
			buckets = append(buckets, b)
		}
	}
	return NewRanking(buckets...)
}

// TestSessionAddRemoveRanking is the tentpole acceptance at the Session
// layer: a mutation delta-updates the cached matrix (no rebuild), the
// result is byte-identical to a from-scratch build of the mutated
// dataset, the hash rotates, and removing the ranking again restores
// everything.
func TestSessionAddRemoveRanking(t *testing.T) {
	d := sessionTestDataset(t, 5, 18, 11)
	s := newTestSession(t, d.Clone())
	origHash := s.Hash()
	origPairs := s.Pairs() // triggers the one allowed build

	rng := rand.New(rand.NewSource(12))
	extra := completeRandomRanking(rng, d.N)
	if err := s.AddRanking(extra); err != nil {
		t.Fatal(err)
	}
	if s.MatrixBuilds() != 1 || s.MatrixDeltas() != 1 {
		t.Fatalf("after add: builds=%d deltas=%d, want 1 and 1", s.MatrixBuilds(), s.MatrixDeltas())
	}
	grown := d.Clone()
	grown.Rankings = append(grown.Rankings, extra)
	if got, want := s.Hash(), grown.Hash(); got != want {
		t.Fatalf("hash after add = %s, want fresh hash %s", got, want)
	}
	if !s.Pairs().Equal(kendall.NewPairs(grown)) {
		t.Fatal("delta-updated matrix differs from a fresh build of the grown dataset")
	}
	if s.Dataset().M() != d.M()+1 {
		t.Fatalf("dataset m = %d, want %d", s.Dataset().M(), d.M()+1)
	}
	if origPairs.M != d.M() {
		t.Fatal("pre-mutation snapshot was mutated in place (copy-on-write broken)")
	}

	if err := s.RemoveRanking(extra); err != nil {
		t.Fatal(err)
	}
	if got := s.Hash(); got != origHash {
		t.Fatalf("hash after add+remove = %s, want original %s", got, origHash)
	}
	if !s.Pairs().Equal(origPairs) {
		t.Fatal("matrix after add+remove differs from the original")
	}
	if s.MatrixBuilds() != 1 || s.MatrixDeltas() != 2 || s.Version() != 2 {
		t.Fatalf("builds=%d deltas=%d version=%d, want 1, 2, 2", s.MatrixBuilds(), s.MatrixDeltas(), s.Version())
	}
}

// TestSessionRunAfterMutation checks aggregation correctness end to end:
// a run on the mutated session scores identically to a run on a fresh
// session over the equivalent dataset.
func TestSessionRunAfterMutation(t *testing.T) {
	ctx := context.Background()
	d := sessionTestDataset(t, 6, 16, 21)
	s := newTestSession(t, d.Clone())
	if _, err := s.Run(ctx, "BordaCount"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	extra := completeRandomRanking(rng, d.N)
	if err := s.AddRanking(extra); err != nil {
		t.Fatal(err)
	}
	got, err := s.Run(ctx, "CopelandPairwise")
	if err != nil {
		t.Fatal(err)
	}
	grown := d.Clone()
	grown.Rankings = append(grown.Rankings, extra)
	want, err := newTestSession(t, grown).Run(ctx, "CopelandPairwise")
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score || !got.Consensus.Equal(want.Consensus) {
		t.Fatalf("mutated-session run (score %d) differs from fresh-session run (score %d)", got.Score, want.Score)
	}
	if s.MatrixBuilds() != 1 {
		t.Fatalf("run after mutation rebuilt the matrix (builds=%d)", s.MatrixBuilds())
	}
}

// TestSessionStalePairsRejected pins the loud-failure contract: a matrix
// captured before a mutation is refused by WithPairs with ErrStalePairs,
// and the re-obtained matrix works.
func TestSessionStalePairsRejected(t *testing.T) {
	ctx := context.Background()
	d := sessionTestDataset(t, 5, 14, 31)
	s := newTestSession(t, d)
	stale := s.Pairs()
	rng := rand.New(rand.NewSource(32))
	if err := s.AddRanking(completeRandomRanking(rng, d.N)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx, "KwikSort", WithPairs(stale)); !errors.Is(err, ErrStalePairs) {
		t.Fatalf("stale WithPairs: err = %v, want ErrStalePairs", err)
	}
	if _, err := s.Run(ctx, "KwikSort", WithPairs(s.Pairs())); err != nil {
		t.Fatalf("current WithPairs rejected: %v", err)
	}
}

// TestSessionDeltaBeforeBuild checks a mutation on a never-built session
// costs nothing and leaves the lazily built matrix (and its version
// stamp) valid for WithPairs.
func TestSessionDeltaBeforeBuild(t *testing.T) {
	d := sessionTestDataset(t, 4, 12, 41)
	s := newTestSession(t, d.Clone())
	rng := rand.New(rand.NewSource(42))
	extra := completeRandomRanking(rng, d.N)
	if err := s.AddRanking(extra); err != nil {
		t.Fatal(err)
	}
	if s.MatrixBuilds() != 0 || s.MatrixDeltas() != 0 {
		t.Fatalf("mutation before build: builds=%d deltas=%d, want 0 and 0", s.MatrixBuilds(), s.MatrixDeltas())
	}
	p := s.Pairs()
	if s.MatrixBuilds() != 1 || p.M != d.M()+1 {
		t.Fatalf("lazy build after mutation: builds=%d m=%d", s.MatrixBuilds(), p.M)
	}
	if _, err := s.Run(context.Background(), "KwikSort", WithPairs(p)); err != nil {
		t.Fatalf("lazily built matrix rejected as stale: %v", err)
	}
}

// TestSessionDeltaErrors covers the validation paths: unknown removal,
// emptying the dataset, partial or out-of-universe additions — all leave
// the session untouched.
func TestSessionDeltaErrors(t *testing.T) {
	d := sessionTestDataset(t, 2, 8, 51)
	s := newTestSession(t, d.Clone())
	hash := s.Hash()

	rng := rand.New(rand.NewSource(52))
	if err := s.RemoveRanking(completeRandomRanking(rng, d.N)); !errors.Is(err, ErrRankingNotFound) {
		t.Fatalf("removing an absent ranking: err = %v, want ErrRankingNotFound", err)
	}
	if err := s.ApplyDelta(nil, []*Ranking{d.Rankings[0], d.Rankings[1]}); !errors.Is(err, ErrDatasetEmptied) {
		t.Fatalf("emptying delta: err = %v, want ErrDatasetEmptied", err)
	}
	partial := NewRanking([]int{0, 1}) // does not cover the universe
	if err := s.AddRanking(partial); err == nil {
		t.Fatal("partial ranking accepted into a complete session")
	}
	tooBig := completeRandomRanking(rng, d.N+1)
	if err := s.AddRanking(tooBig); err == nil {
		t.Fatal("out-of-universe ranking accepted")
	}
	if s.Hash() != hash || s.Version() != 0 || s.Dataset().M() != d.M() {
		t.Fatal("failed deltas mutated the session")
	}
	// A batch with one bad entry must apply nothing.
	good := completeRandomRanking(rng, d.N)
	if err := s.ApplyDelta([]*Ranking{good, partial}, nil); err == nil {
		t.Fatal("batch with invalid entry accepted")
	}
	if s.Dataset().M() != d.M() {
		t.Fatal("partial batch application: atomicity broken")
	}
}

// TestSessionConcurrentMutationAndRuns races Run against ApplyDelta on
// one session (run under -race in CI). Every run must land on one of the
// two dataset snapshots the mutator toggles between, scoring exactly as
// a fresh session over that snapshot would.
func TestSessionConcurrentMutationAndRuns(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(61))
	base := gen.UniformDataset(rng, 5, 14)
	extra := completeRandomRanking(rng, base.N)
	grown := base.Clone()
	grown.Rankings = append(grown.Rankings, extra)

	scoreOf := func(d *Dataset) int64 {
		t.Helper()
		res, err := newTestSession(t, d.Clone()).Run(ctx, "CopelandPairwise")
		if err != nil {
			t.Fatal(err)
		}
		return res.Score
	}
	baseScore, grownScore := scoreOf(base), scoreOf(grown)

	s := newTestSession(t, base.Clone())
	s.Pairs()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Run(ctx, "CopelandPairwise")
				if err != nil {
					t.Error(err)
					return
				}
				if res.Score != baseScore && res.Score != grownScore {
					t.Errorf("score %d matches neither snapshot (%d / %d)", res.Score, baseScore, grownScore)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		var err error
		if i%2 == 0 {
			err = s.AddRanking(extra)
		} else {
			err = s.RemoveRanking(extra)
		}
		if err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if !s.Pairs().Equal(kendall.NewPairs(base)) {
		t.Fatal("final matrix differs from a fresh build after the toggle storm")
	}
}

// TestSessionCompactRace races background matrix re-compaction against
// concurrent Run readers and a delta mutator (run under -race in CI). The
// copy-on-write swap discipline means no reader ever observes a torn
// matrix: every run scores exactly like one of the two dataset snapshots,
// and after the storm one quiescent CompactMatrix returns Bytes() to the
// pre-promotion int8 footprint.
func TestSessionCompactRace(t *testing.T) {
	ctx := context.Background()
	const n = 5
	rng := rand.New(rand.NewSource(71))
	base := completeRandomRanking(rng, n)
	rks := make([]*Ranking, 127)
	for i := range rks {
		rks[i] = base
	}
	d := NewDataset(n, rks...)
	extra := completeRandomRanking(rng, n)
	grown := d.Clone()
	grown.Rankings = append(grown.Rankings, extra)

	scoreOf := func(d *Dataset) int64 {
		t.Helper()
		res, err := newTestSession(t, d.Clone()).Run(ctx, "CopelandPairwise")
		if err != nil {
			t.Fatal(err)
		}
		return res.Score
	}
	baseScore, grownScore := scoreOf(d), scoreOf(grown)

	s := newTestSession(t, d.Clone())
	s.Pairs()
	baseBytes := s.MatrixBytes()
	if baseBytes != 2*1*n*n {
		t.Fatalf("127-ranking matrix is %d bytes, want %d (int8 tiles)", baseBytes, 2*1*n*n)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Run(ctx, "CopelandPairwise")
				if err != nil {
					t.Error(err)
					return
				}
				if res.Score != baseScore && res.Score != grownScore {
					t.Errorf("score %d matches neither snapshot (%d / %d): torn matrix", res.Score, baseScore, grownScore)
					return
				}
			}
		}()
	}
	// Background compactor, sweeping as fast as it can while deltas fly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.CompactMatrix()
			}
		}
	}()
	// The mutator toggles the 128th ranking: each add crosses m = 127 and
	// promotes the plane to int16; each remove leaves it widened for the
	// compactor to reclaim.
	for i := 0; i < 30; i++ {
		var err error
		if i%2 == 0 {
			err = s.AddRanking(extra)
		} else {
			err = s.RemoveRanking(extra)
		}
		if err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()

	s.CompactMatrix() // quiescent: must fully re-pack
	if got := s.MatrixBytes(); got != baseBytes {
		t.Fatalf("MatrixBytes after the storm = %d, want the pre-promotion %d", got, baseBytes)
	}
	if !s.Pairs().Equal(kendall.NewPairs(d)) {
		t.Fatal("compacted matrix differs from a fresh build of the dataset")
	}
}

// TestCallerMatrixMustBeComplete: a pair matrix built from an incomplete
// dataset is never the matrix of the complete dataset an aggregator takes,
// so both entries for a caller's matrix — AggregateWithPairs and a
// session's WithPairs — reject it with core.ErrIncomplete instead of
// running on it.
func TestCallerMatrixMustBeComplete(t *testing.T) {
	d := NewDataset(3,
		NewRanking([]int{0}, []int{1, 2}),
		NewRanking([]int{2}, []int{0}, []int{1}),
	)
	p := NewPairs(NewDataset(3,
		NewRanking([]int{0}, []int{1}), // element 2 missing
		NewRanking([]int{2}, []int{0}, []int{1}),
	))
	for _, name := range []string{"BioConsert", "Anneal", "KwikSortMin", "BordaCount", "ExactAlgorithm"} {
		if _, err := AggregateWithPairs(name, d, p); !errors.Is(err, core.ErrIncomplete) {
			t.Errorf("AggregateWithPairs(%s, incomplete matrix) = %v, want ErrIncomplete", name, err)
		}
	}
	sess, err := NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), "BioConsert", WithPairs(p)); !errors.Is(err, core.ErrIncomplete) {
		t.Errorf("Run(WithPairs(incomplete matrix)) = %v, want ErrIncomplete", err)
	}
	seeded, err := NewSession(d, WithPairs(p))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seeded.Run(context.Background(), "BioConsert"); !errors.Is(err, core.ErrIncomplete) {
		t.Errorf("session seeded with an incomplete matrix: Run = %v, want ErrIncomplete", err)
	}
}

// TestRunSpecPinned: a pinned run executes only while the session's
// dataset still hashes to the pin, on both session tiers; after a delta
// rotates the dataset the old pin fails with ErrStalePairs and the new hash
// runs.
func TestRunSpecPinned(t *testing.T) {
	d := sessionTestDataset(t, 4, 6, 71)
	sess := newTestSession(t, d)
	asess, err := NewApproxSession(d)
	if err != nil {
		t.Fatal(err)
	}
	old := d.Hash()
	for _, tc := range []struct {
		alg string
		run func(hash string) (*Result, error)
		add func() error
	}{
		{"BordaCount", func(h string) (*Result, error) {
			return sess.RunSpecPinned(context.Background(), h, RunSpec{Algorithm: "BordaCount"})
		}, func() error { return sess.AddRanking(d.Rankings[0]) }},
		{"lehmer", func(h string) (*Result, error) {
			return asess.RunSpecPinned(context.Background(), h, RunSpec{Algorithm: "lehmer"})
		}, func() error { return asess.AddRanking(d.Rankings[0]) }},
	} {
		if _, err := tc.run(old); err != nil {
			t.Fatalf("%s pinned to the current hash: %v", tc.alg, err)
		}
		if err := tc.add(); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.run(old); !errors.Is(err, ErrStalePairs) {
			t.Errorf("%s pinned to a rotated-away hash: %v, want ErrStalePairs", tc.alg, err)
		}
	}
	if res, err := sess.RunSpecPinned(context.Background(), sess.Hash(), RunSpec{Algorithm: "BordaCount"}); err != nil || res.Score != Score(res.Consensus, sess.Dataset()) {
		t.Errorf("BordaCount pinned to the rotated hash: %v", err)
	}
}
