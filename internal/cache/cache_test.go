package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rankagg"
	"rankagg/internal/gen"
)

// testSession builds a small session with its matrix eagerly built, the
// way the serving layer hands sessions to the cache.
func testSession(t *testing.T, n int, seed int64) *rankagg.Session {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := gen.UniformDataset(rng, 5, n)
	sess, err := rankagg.NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	sess.Pairs()
	return sess
}

func builderOf(t *testing.T, n int, seed int64, calls *int) func() (*rankagg.Session, error) {
	return func() (*rankagg.Session, error) {
		*calls++
		return testSession(t, n, seed), nil
	}
}

func TestGetOrBuildCachesAndCounts(t *testing.T) {
	c := New(4, 0)
	calls := 0
	s1, hit, err := c.GetOrBuild("k1", builderOf(t, 10, 1, &calls))
	if err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v", hit, err)
	}
	s2, hit, err := c.GetOrBuild("k1", builderOf(t, 10, 1, &calls))
	if err != nil || !hit {
		t.Fatalf("second lookup: hit=%v err=%v", hit, err)
	}
	if s1 != s2 {
		t.Error("second lookup returned a different session")
	}
	if calls != 1 {
		t.Errorf("build ran %d times, want 1", calls)
	}
	if s1.MatrixBuilds() != 1 {
		t.Errorf("matrix built %d times, want 1", s1.MatrixBuilds())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Builds != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The weight is the REAL backing size of the chosen representation —
	// n = 10, complete, m ≤ 127 resolves to int8 tiles + derived-tied: two
	// n² planes of 1 byte, a sixth of the 1200-byte int32 figure.
	if st.Bytes != s1.MatrixBytes() || st.Bytes != 2*1*10*10 {
		t.Errorf("bytes = %d, want %d (= MatrixBytes %d)", st.Bytes, 2*1*10*10, s1.MatrixBytes())
	}
}

func TestEntryBudgetEvictsLRU(t *testing.T) {
	c := New(2, 0)
	for i := 0; i < 3; i++ {
		calls := 0
		if _, _, err := c.GetOrBuild(fmt.Sprintf("k%d", i), builderOf(t, 8, int64(i), &calls)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("k0"); ok {
		t.Error("k0 should have been evicted (LRU)")
	}
	if _, ok := c.Get("k2"); !ok {
		t.Error("k2 should be cached")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	c := New(2, 0)
	for i := 0; i < 2; i++ {
		calls := 0
		if _, _, err := c.GetOrBuild(fmt.Sprintf("k%d", i), builderOf(t, 8, int64(i), &calls)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get("k0"); !ok { // touch k0: k1 becomes LRU
		t.Fatal("k0 missing")
	}
	calls := 0
	if _, _, err := c.GetOrBuild("k2", builderOf(t, 8, 2, &calls)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k1"); ok {
		t.Error("k1 should have been evicted after k0 was touched")
	}
	if _, ok := c.Get("k0"); !ok {
		t.Error("recently-touched k0 was evicted")
	}
}

func TestByteBudgetEvicts(t *testing.T) {
	// n = 10 complete → 200 bytes per int8-derived matrix; the budget
	// fits two matrices but not three (the compact backends are exactly
	// why a fixed -cache-bytes budget now holds ~6× more sessions).
	c := New(0, 450)
	for i := 0; i < 3; i++ {
		calls := 0
		if _, _, err := c.GetOrBuild(fmt.Sprintf("k%d", i), builderOf(t, 10, int64(i), &calls)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 400 || st.Evictions != 1 {
		t.Errorf("stats after byte eviction = %+v", st)
	}
	// An entry larger than the whole budget is still admitted (alone).
	calls := 0
	if _, _, err := c.GetOrBuild("big", builderOf(t, 40, 9, &calls)); err != nil { // 3200 bytes
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Entries != 1 || st.Bytes != 3200 {
		t.Errorf("oversize entry not retained alone: %+v", st)
	}
}

func TestBuildErrorNotCached(t *testing.T) {
	c := New(4, 0)
	boom := errors.New("boom")
	_, _, err := c.GetOrBuild("k", func() (*rankagg.Session, error) { return nil, boom })
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 || c.Stats().Builds != 0 {
		t.Errorf("failed build was cached: %+v", c.Stats())
	}
	calls := 0
	if _, _, err := c.GetOrBuild("k", builderOf(t, 8, 1, &calls)); err != nil || calls != 1 {
		t.Errorf("retry after error: err=%v calls=%d", err, calls)
	}
}

// mutableSession builds a complete-dataset session (delta mutation
// requires completeness) with its matrix eagerly built.
func mutableSession(t *testing.T, m, n int, seed int64) (*rankagg.Session, *rankagg.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := gen.UniformDataset(rng, m, n)
	sess, err := rankagg.NewSession(d.Clone())
	if err != nil {
		t.Fatal(err)
	}
	sess.Pairs()
	return sess, d
}

// completeRanking draws one complete tied ranking over n elements.
func completeRanking(rng *rand.Rand, n int) *rankagg.Ranking {
	d := gen.UniformDataset(rng, 1, n)
	return d.Rankings[0]
}

// TestMutateRekeysEntry checks the PATCH path's cache side: the entry
// moves from the old hash to the new one, the old key misses afterwards,
// bytes stay accounted, and no extra build happens.
func TestMutateRekeysEntry(t *testing.T) {
	c := New(4, 0)
	sess, d := mutableSession(t, 4, 12, 3)
	h0 := sess.Hash()
	if _, _, err := c.GetOrBuild(h0, func() (*rankagg.Session, error) { return sess, nil }); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	extra := completeRanking(rng, d.N)
	got, newKey, found, err := c.Mutate(h0, func(s *rankagg.Session) (string, error) {
		if err := s.AddRanking(extra); err != nil {
			return "", err
		}
		return s.Hash(), nil
	})
	if err != nil || !found || got != sess {
		t.Fatalf("Mutate: found=%v err=%v same-session=%v", found, err, got == sess)
	}
	if newKey == h0 {
		t.Fatal("hash did not rotate on mutation")
	}
	if _, ok := c.Get(h0); ok {
		t.Error("old key still cached after rekey")
	}
	if s2, ok := c.Get(newKey); !ok || s2 != sess {
		t.Error("new key does not serve the mutated session")
	}
	st := c.Stats()
	if st.Rekeys != 1 || st.Entries != 1 || st.Bytes != sess.MatrixBytes() {
		t.Errorf("stats after rekey = %+v", st)
	}
	if sess.MatrixBuilds() != 1 || sess.MatrixDeltas() != 1 {
		t.Errorf("builds=%d deltas=%d after rekey, want 1 and 1", sess.MatrixBuilds(), sess.MatrixDeltas())
	}
}

// TestMutateMissAndFailure: a missing key reports found=false without
// running mutate; a failing mutate restores the entry under its old key.
func TestMutateMissAndFailure(t *testing.T) {
	c := New(4, 0)
	ran := false
	if _, _, found, err := c.Mutate("nope", func(*rankagg.Session) (string, error) {
		ran = true
		return "", nil
	}); found || err != nil || ran {
		t.Fatalf("miss: found=%v err=%v ran=%v", found, err, ran)
	}

	sess, _ := mutableSession(t, 3, 10, 5)
	h := sess.Hash()
	if _, _, err := c.GetOrBuild(h, func() (*rankagg.Session, error) { return sess, nil }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, _, found, err := c.Mutate(h, func(*rankagg.Session) (string, error) { return "", boom }); !found || err != boom {
		t.Fatalf("failing mutate: found=%v err=%v", found, err)
	}
	if _, ok := c.Get(h); !ok {
		t.Error("entry not restored under its old key after a failed mutate")
	}
	if st := c.Stats(); st.Rekeys != 0 || st.Entries != 1 {
		t.Errorf("stats after failed mutate = %+v", st)
	}
}

// TestConcurrentMutateAndAggregate races 16 goroutines of mixed traffic —
// PATCH-style Mutate chains and aggregate-style GetOrBuild/Run — on one
// hot entry (run under -race in CI). Mutators follow the rotating hash;
// losers of the detach race fall back like the server does. At the end
// the surviving session's matrix must be byte-identical to a fresh build
// of its final dataset.
func TestConcurrentMutateAndAggregate(t *testing.T) {
	c := New(8, 0)
	sess, d := mutableSession(t, 4, 16, 6)
	baseM := d.M()
	h0 := sess.Hash()
	if _, _, err := c.GetOrBuild(h0, func() (*rankagg.Session, error) { return sess, nil }); err != nil {
		t.Fatal(err)
	}
	extra := completeRanking(rand.New(rand.NewSource(7)), d.N)
	grown := d.Clone()
	grown.Rankings = append(grown.Rankings, extra)
	grownHash := grown.Hash()
	datasetOf := func(key string) *rankagg.Dataset {
		if key == grownHash {
			return grown
		}
		return d
	}

	var mu sync.Mutex
	curKey := h0
	readKey := func() string { mu.Lock(); defer mu.Unlock(); return curKey }
	setKey := func(k string) { mu.Lock(); defer mu.Unlock(); curKey = k }

	const G = 16
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				key := readKey()
				if g%2 == 0 {
					// Aggregate-style: fetch whatever is hot and read its
					// matrix; a miss rebuilds the dataset the key names,
					// exactly as the server derives it from the request body.
					s, _, err := c.GetOrBuild(key, func() (*rankagg.Session, error) {
						ns, err := rankagg.NewSession(datasetOf(key).Clone())
						if err == nil {
							ns.Pairs()
						}
						return ns, err
					})
					if err != nil {
						t.Error(err)
						return
					}
					if got := s.Pairs().M; got != baseM && got != baseM+1 {
						t.Errorf("matrix m = %d, want %d or %d", got, baseM, baseM+1)
						return
					}
				} else {
					// PATCH-style: toggle the extra ranking on the entry the
					// key currently names. A miss means another mutator got
					// there first — move on. The rotated key is published
					// INSIDE the closure, while this goroutine still owns
					// the detached entry: publishing after Mutate returns
					// could reorder against a later mutation of the same
					// entry and leave curKey naming a rotated-away hash.
					_, _, _, err := c.Mutate(key, func(s *rankagg.Session) (string, error) {
						if s.Dataset().M() == baseM {
							if err := s.AddRanking(extra); err != nil {
								return "", err
							}
						} else if err := s.RemoveRanking(extra); err != nil {
							return "", err
						}
						nk := s.Hash()
						setKey(nk)
						return nk, nil
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	finalKey := readKey()
	final, ok := c.Get(finalKey)
	if !ok {
		t.Fatal("current key not cached after the storm")
	}
	if got := final.Hash(); got != finalKey {
		t.Fatalf("entry under key %s holds dataset %s: the key no longer names its content", finalKey, got)
	}
	fresh, err := rankagg.NewSession(final.Dataset().Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !final.Pairs().Equal(fresh.Pairs()) {
		t.Fatal("final delta-maintained matrix differs from a fresh build of its dataset")
	}
	if st := c.Stats(); st.Rekeys == 0 {
		t.Errorf("no rekeys recorded under concurrent mutation: %+v", st)
	}
}

// TestSingleFlight races many goroutines on one cold key: the build must
// run exactly once and everyone must get the same session. Run under
// -race in CI.
func TestSingleFlight(t *testing.T) {
	c := New(4, 0)
	var mu sync.Mutex
	calls := 0
	build := func() (*rankagg.Session, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return testSession(t, 60, 7), nil // big enough for the build to take a moment
	}
	const G = 16
	sessions := make([]*rankagg.Session, G)
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, _, err := c.GetOrBuild("hot", build)
			if err != nil {
				t.Error(err)
			}
			sessions[g] = s
		}(g)
	}
	wg.Wait()
	if calls != 1 {
		t.Errorf("build ran %d times under contention, want 1", calls)
	}
	for g := 1; g < G; g++ {
		if sessions[g] != sessions[0] {
			t.Fatalf("goroutine %d got a different session", g)
		}
	}
	if b := c.Stats().Builds; b != 1 {
		t.Errorf("stats.Builds = %d, want 1", b)
	}
}

// TestMutateReaccountsPromotedBytes is the byte re-accounting contract of
// the polymorphic matrix storage: a delta that crosses m = 32767 promotes
// the session's int16 matrix to int32 — doubling its real backing size —
// and Mutate must re-measure the entry's weight from MatrixBytes instead
// of assuming any fixed formula, so the byte budget keeps meaning real
// memory. The universe is tiny to keep the 32k-ranking build cheap.
func TestMutateReaccountsPromotedBytes(t *testing.T) {
	const n = 4
	base := rankagg.NewRanking([]int{0, 1}, []int{2}, []int{3})
	rks := make([]*rankagg.Ranking, 32767)
	for i := range rks {
		rks[i] = base
	}
	sess, err := rankagg.NewSession(rankagg.NewDataset(n, rks...))
	if err != nil {
		t.Fatal(err)
	}
	sess.Pairs()
	compact := sess.MatrixBytes()
	if compact != 2*2*n*n {
		t.Fatalf("pre-promotion MatrixBytes = %d, want %d (int16 + derived-tied)", compact, 2*2*n*n)
	}

	c := New(4, 0)
	h0 := sess.Hash()
	if _, _, err := c.GetOrBuild(h0, func() (*rankagg.Session, error) { return sess, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Bytes != compact {
		t.Fatalf("cached bytes = %d, want %d", st.Bytes, compact)
	}

	_, newKey, found, err := c.Mutate(h0, func(s *rankagg.Session) (string, error) {
		if err := s.AddRanking(rankagg.NewRanking([]int{3}, []int{2, 1}, []int{0})); err != nil {
			return "", err
		}
		return s.Hash(), nil
	})
	if err != nil || !found {
		t.Fatalf("Mutate: found=%v err=%v", found, err)
	}
	promoted := sess.MatrixBytes()
	if promoted != 2*4*n*n {
		t.Fatalf("post-promotion MatrixBytes = %d, want %d (int32 + derived-tied)", promoted, 2*4*n*n)
	}
	st := c.Stats()
	if st.Bytes != promoted {
		t.Errorf("cache accounts %d bytes for the promoted entry, want %d", st.Bytes, promoted)
	}
	if _, ok := c.Get(newKey); !ok {
		t.Error("promoted entry lost its new key")
	}
	if sess.MatrixBuilds() != 1 || sess.MatrixDeltas() != 1 {
		t.Errorf("builds=%d deltas=%d, want 1 and 1 (promotion must not rebuild)", sess.MatrixBuilds(), sess.MatrixDeltas())
	}
}

// TestCompactSweepReclaims drives the idle-compaction path end to end: a
// 127-ranking session builds int8-tiled, a transient add/remove delta
// promotes it to int16 (promotions are one-way on the delta path), and
// CompactSweep re-compacts it back, re-accounting the cache's byte gauge
// and bumping the compaction counters. Sweeps with nothing to reclaim
// must be free no-ops.
func TestCompactSweepReclaims(t *testing.T) {
	const n = 4
	base := rankagg.NewRanking([]int{0, 1}, []int{2}, []int{3})
	rks := make([]*rankagg.Ranking, 127)
	for i := range rks {
		rks[i] = base
	}
	sess, err := rankagg.NewSession(rankagg.NewDataset(n, rks...))
	if err != nil {
		t.Fatal(err)
	}
	sess.Pairs()
	compact := sess.MatrixBytes()
	if compact != 2*1*n*n {
		t.Fatalf("pre-promotion MatrixBytes = %d, want %d (int8 + derived-tied)", compact, 2*1*n*n)
	}

	c := New(4, 0)
	key := sess.Hash()
	if _, _, err := c.GetOrBuild(key, func() (*rankagg.Session, error) { return sess, nil }); err != nil {
		t.Fatal(err)
	}
	if cnt, freed := CompactSweep(c); cnt != 0 || freed != 0 {
		t.Fatalf("sweep on a compact cache reclaimed %d entries / %d bytes", cnt, freed)
	}

	extra := rankagg.NewRanking([]int{3}, []int{2, 1}, []int{0})
	_, key, _, err = c.Mutate(key, func(s *rankagg.Session) (string, error) {
		if err := s.AddRanking(extra); err != nil {
			return "", err
		}
		return s.Hash(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, key, _, err = c.Mutate(key, func(s *rankagg.Session) (string, error) {
		if err := s.RemoveRanking(extra); err != nil {
			return "", err
		}
		return s.Hash(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	widened := sess.MatrixBytes()
	if widened != 2*2*n*n {
		t.Fatalf("post-roundtrip MatrixBytes = %d, want %d (int16 sticks until compaction)", widened, 2*2*n*n)
	}
	if st := c.Stats(); st.Bytes != widened {
		t.Fatalf("cache accounts %d bytes before the sweep, want %d", st.Bytes, widened)
	}

	cnt, freed := CompactSweep(c)
	if cnt != 1 || freed != widened-compact {
		t.Fatalf("sweep reclaimed %d entries / %d bytes, want 1 / %d", cnt, freed, widened-compact)
	}
	if got := sess.MatrixBytes(); got != compact {
		t.Errorf("MatrixBytes after sweep = %d, want %d", got, compact)
	}
	st := c.Stats()
	if st.Bytes != compact || st.Compactions != 1 || st.CompactedBytes != widened-compact {
		t.Errorf("stats after sweep = %+v", st)
	}
	// The re-compacted matrix must still be byte-identical to a fresh build.
	fresh, err := rankagg.NewSession(sess.Dataset().Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Pairs().Equal(fresh.Pairs()) {
		t.Error("compacted matrix differs from a fresh build of its dataset")
	}
	if cnt, freed := CompactSweep(c); cnt != 0 || freed != 0 {
		t.Errorf("second sweep reclaimed %d entries / %d bytes, want a no-op", cnt, freed)
	}
	if _, ok := c.Get(key); !ok {
		t.Error("entry lost its key across compaction")
	}
}
