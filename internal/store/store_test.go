package store

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rankagg"
	"rankagg/internal/rankings"
)

// applyDelta is the delta rule the store applies (rankings.ApplyDelta),
// without the matched rankings: the mirror the tests check the store
// against.
func applyDelta(d *rankings.Dataset, add, remove []*rankings.Ranking) (*rankings.Dataset, error) {
	next, _, err := rankings.ApplyDelta(d, add, remove)
	return next, err
}

func randRanking(rng *rand.Rand, n int) *rankings.Ranking {
	perm := rng.Perm(n)
	var buckets [][]int
	for i := 0; i < n; {
		k := 1 + rng.Intn(3)
		if i+k > n {
			k = n - i
		}
		buckets = append(buckets, perm[i:i+k])
		i += k
	}
	return rankings.New(buckets...)
}

func randDataset(rng *rand.Rand, n, m int) *rankings.Dataset {
	rks := make([]*rankings.Ranking, m)
	for i := range rks {
		rks[i] = randRanking(rng, n)
	}
	return rankings.NewDataset(n, rks...)
}

func open(t *testing.T, dir string, budget int) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir, ReplayBudget: budget})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPatch(t *testing.T, s *Store, hash string, add, remove []*rankings.Ranking) string {
	t.Helper()
	newHash, _, err := s.AppendPatch(hash, add, remove)
	if err != nil {
		t.Fatalf("AppendPatch: %v", err)
	}
	return newHash
}

func TestCreateIdempotent(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	rng := rand.New(rand.NewSource(1))
	d := randDataset(rng, 5, 3)

	hash, created, err := s.Create(d, []string{"a", "b", "c", "d", "e"})
	if err != nil || !created {
		t.Fatalf("Create: created=%v err=%v", created, err)
	}
	if hash != d.Hash() {
		t.Fatalf("Create hash = %s, want %s", hash, d.Hash())
	}
	if _, again, err := s.Create(d, nil); err != nil || again {
		t.Fatalf("second Create: created=%v err=%v, want false nil", again, err)
	}
	if !s.Has(hash) {
		t.Fatalf("Has(%s) = false after Create", hash)
	}
	info, ok := s.Info(hash)
	if !ok || info.N != 5 || info.M != 3 || info.Version != 0 || info.LogRecords != 0 {
		t.Fatalf("Info = %+v ok=%v", info, ok)
	}
	if got := s.List(); len(got) != 1 || got[0].Hash != hash {
		t.Fatalf("List = %+v, want one entry at %s", got, hash)
	}
	cur, names, err := s.Dataset(hash)
	if err != nil || cur.Hash() != hash || len(names) != 5 {
		t.Fatalf("Dataset: hash=%s names=%v err=%v", cur.Hash(), names, err)
	}
}

// TestReplayByteIdentical is the tentpole property test: a session
// reconstructed from snapshot + log replay must be byte-identical to a
// fresh build of the final dataset — same pair counts (Pairs.Equal), and
// after compaction the same layout and footprint.
func TestReplayByteIdentical(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		m := 2 + rng.Intn(5)
		d := randDataset(rng, n, m)

		s := open(t, t.TempDir(), -1) // compaction off: force real replay
		hash, _, err := s.Create(d, nil)
		if err != nil {
			t.Fatalf("seed %d: Create: %v", seed, err)
		}
		cur := d
		for step := 0; step < 6; step++ {
			var add, remove []*rankings.Ranking
			if len(cur.Rankings) > 1 && rng.Intn(2) == 0 {
				remove = append(remove, cur.Rankings[rng.Intn(len(cur.Rankings))])
			}
			for k := rng.Intn(3); k >= 0; k-- {
				add = append(add, randRanking(rng, n))
			}
			newHash, info, err := s.AppendPatch(hash, add, remove)
			if err != nil {
				t.Fatalf("seed %d step %d: AppendPatch: %v", seed, step, err)
			}
			next, err := applyDelta(cur, add, remove)
			if err != nil {
				t.Fatalf("seed %d step %d: mirror applyDelta: %v", seed, step, err)
			}
			if newHash != next.Hash() {
				t.Fatalf("seed %d step %d: rotated to %s, mirror says %s", seed, step, newHash, next.Hash())
			}
			if info.LogRecords != step+1 {
				t.Fatalf("seed %d step %d: LogRecords = %d, want %d", seed, step, info.LogRecords, step+1)
			}
			cur, hash = next, newHash
		}

		sess, _, err := s.Rebuild(hash)
		if err != nil {
			t.Fatalf("seed %d: Rebuild: %v", seed, err)
		}
		if sess.Hash() != hash || sess.Dataset().Hash() != hash {
			t.Fatalf("seed %d: rebuilt session hash %s, want %s", seed, sess.Hash(), hash)
		}
		fresh := rankagg.NewPairs(cur)
		if !sess.Pairs().Equal(fresh) {
			t.Fatalf("seed %d: replayed pairs differ from fresh build", seed)
		}
		sess.CompactMatrix()
		if sess.MatrixLayout() != fresh.Layout() || sess.MatrixBytes() != fresh.Bytes() {
			t.Fatalf("seed %d: compacted replay layout %s/%d bytes, fresh %s/%d",
				seed, sess.MatrixLayout(), sess.MatrixBytes(), fresh.Layout(), fresh.Bytes())
		}
		if st := s.Stats(); st.Replays != 1 || st.ReplaySeconds <= 0 {
			t.Fatalf("seed %d: Stats replays=%d seconds=%v", seed, st.Replays, st.ReplaySeconds)
		}
	}
}

func TestReopenRestoresState(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	d := randDataset(rng, 6, 4)

	s := open(t, dir, -1)
	h0, _, err := s.Create(d, []string{"u", "v", "w", "x", "y", "z"})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	h1 := mustPatch(t, s, h0, []*rankings.Ranking{randRanking(rng, 6)}, nil)
	h2 := mustPatch(t, s, h1, []*rankings.Ranking{randRanking(rng, 6)}, []*rankings.Ranking{d.Rankings[0]})
	res := &ResultWire{Algorithm: "bioconsert", Consensus: randRanking(rng, 6), Score: 42}
	s.SaveConsensus(h2, "00000000000000000000000000000abc", res)
	s.Close()

	r := open(t, dir, -1)
	if r.Has(h0) || r.Has(h1) || !r.Has(h2) {
		t.Fatalf("reopened index: Has(h0)=%v Has(h1)=%v Has(h2)=%v, want false false true",
			r.Has(h0), r.Has(h1), r.Has(h2))
	}
	info, ok := r.Info(h2)
	if !ok || info.Version != 3 || info.LogRecords != 2 {
		t.Fatalf("reopened Info = %+v ok=%v, want version 3, 2 log records", info, ok)
	}
	_, names, err := r.Dataset(h2)
	if err != nil || len(names) != 6 || names[0] != "u" {
		t.Fatalf("reopened names = %v err=%v", names, err)
	}
	entries, warm, _, ok := r.Consensus(h2)
	if !ok || warm != nil || len(entries) != 1 {
		t.Fatalf("reopened consensus: entries=%v warm=%v ok=%v", entries, warm, ok)
	}
	if e := entries["00000000000000000000000000000abc"]; e == nil || e.Score != 42 || !e.Consensus.Equal(res.Consensus) {
		t.Fatalf("reopened consensus entry = %+v", e)
	}
	sess, _, err := r.Rebuild(h2)
	if err != nil || sess.Hash() != h2 {
		t.Fatalf("reopened Rebuild: hash=%v err=%v", sess, err)
	}
}

// TestCrashBeforeConsensusRewrite simulates a crash landing between a
// PATCH's fsync'd log append and its consensus-file rotation: on reopen
// the dataset must surface under the post-patch hash and the stale
// consensus entries must demote to a warm hint — the "warm hint survives"
// half of the crash-recovery contract.
func TestCrashBeforeConsensusRewrite(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	d := randDataset(rng, 5, 3)

	s := open(t, dir, -1)
	h0, _, err := s.Create(d, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	best := &ResultWire{Algorithm: "bioconsert", Consensus: randRanking(rng, 5), Score: 9}
	s.SaveConsensus(h0, "00000000000000000000000000000001", best)
	s.SaveConsensus(h0, "00000000000000000000000000000002",
		&ResultWire{Algorithm: "anneal", Consensus: randRanking(rng, 5), Score: 30})
	s.Close()

	// Crash simulation: the log gained a record but consensus.json (and
	// any in-memory state) never heard about it.
	added := randRanking(rng, 5)
	appendRaw(t, dir, h0, logRecord{Seq: 1, Op: opPatch, Add: []*rankings.Ranking{added}})
	next, err := applyDelta(d, []*rankings.Ranking{added}, nil)
	if err != nil {
		t.Fatalf("mirror applyDelta: %v", err)
	}
	h1 := next.Hash()

	r := open(t, dir, -1)
	if r.Has(h0) || !r.Has(h1) {
		t.Fatalf("after crash replay: Has(h0)=%v Has(h1)=%v, want false true", r.Has(h0), r.Has(h1))
	}
	entries, warm, _, ok := r.Consensus(h1)
	if !ok || len(entries) != 0 {
		t.Fatalf("stale consensus not discarded: entries=%v ok=%v", entries, ok)
	}
	if warm == nil || warm.Score != 9 || !warm.Consensus.Equal(best.Consensus) {
		t.Fatalf("best stale entry not demoted to warm hint: %+v", warm)
	}
	sess, _, err := r.Rebuild(h1)
	if err != nil || !sess.Pairs().Equal(rankagg.NewPairs(next)) {
		t.Fatalf("crash replay not byte-identical to fresh build (err=%v)", err)
	}
}

// appendRaw appends a framed record to a dataset's delta log outside any
// Store — the torn-process writes the crash tests need.
func appendRaw(t *testing.T, dir, dsDir string, rec logRecord) {
	t.Helper()
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, datasetsDir, dsDir, deltaLogFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendRecord(f, payload, fi.Size()); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(13))
	d := randDataset(rng, 5, 3)

	s := open(t, dir, -1)
	h0, _, err := s.Create(d, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	h1 := mustPatch(t, s, h0, []*rankings.Ranking{randRanking(rng, 5)}, nil)
	s.Close()

	logPath := filepath.Join(dir, datasetsDir, h0, deltaLogFile)
	intact, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// A torn write: half a header plus garbage.
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := open(t, dir, -1)
	if st := r.Stats(); st.Truncations != 1 {
		t.Fatalf("Stats.Truncations = %d, want 1", st.Truncations)
	}
	if !r.Has(h1) {
		t.Fatalf("dataset lost with its corrupt tail; want intact prefix at %s", h1)
	}
	if got, err := os.ReadFile(logPath); err != nil || len(got) != len(intact) {
		t.Fatalf("log not truncated back to intact prefix: %d bytes, want %d (err=%v)", len(got), len(intact), err)
	}
	// The truncated log must accept new appends cleanly.
	h2 := mustPatch(t, r, h1, []*rankings.Ranking{randRanking(rng, 5)}, nil)
	r.Close()
	r2 := open(t, dir, -1)
	if !r2.Has(h2) {
		t.Fatalf("append after truncation did not survive reopen")
	}
}

func TestCompactionFoldsLog(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(17))
	d := randDataset(rng, 5, 2)

	s := open(t, dir, 2)
	hash, _, err := s.Create(d, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	cur := d
	for i := 0; i < 5; i++ {
		add := []*rankings.Ranking{randRanking(rng, 5)}
		hash = mustPatch(t, s, hash, add, nil)
		cur, _ = applyDelta(cur, add, nil)
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("5 patches under budget 2: Stats.Compactions = 0, want > 0")
	}
	info, _ := s.Info(hash)
	if info.LogRecords > 2 {
		t.Fatalf("post-compaction LogRecords = %d, want ≤ 2", info.LogRecords)
	}
	if info.Version != 5 {
		t.Fatalf("Version = %d across compaction, want 5", info.Version)
	}
	s.Close()

	r := open(t, dir, 2)
	info, ok := r.Info(hash)
	if !ok || info.Version != 5 {
		t.Fatalf("reopened post-compaction Info = %+v ok=%v, want version 5", info, ok)
	}
	sess, _, err := r.Rebuild(hash)
	if err != nil || !sess.Pairs().Equal(rankagg.NewPairs(cur)) {
		t.Fatalf("post-compaction replay differs from fresh build (err=%v)", err)
	}
}

// TestCompactionCrashSafe exercises the seq anchor: a snapshot folded at
// seq S plus a log still holding records ≤ S (the crash-before-truncate
// window) must replay to the same state, the old records skipped as
// no-ops.
func TestCompactionCrashSafe(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(19))
	d := randDataset(rng, 5, 2)

	s := open(t, dir, -1)
	h0, _, err := s.Create(d, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	add1 := randRanking(rng, 5)
	add2 := randRanking(rng, 5)
	h1 := mustPatch(t, s, h0, []*rankings.Ranking{add1}, nil)
	h2 := mustPatch(t, s, h1, []*rankings.Ranking{add2}, nil)

	// Fold the snapshot forward but "crash" before the log truncation:
	// rewrite snapshot.json at the current state by hand, leave delta.log
	// holding both already-folded records.
	cur, _ := applyDelta(d, []*rankings.Ranking{add1}, nil)
	cur, _ = applyDelta(cur, []*rankings.Ranking{add2}, nil)
	snap := snapshotWire{Hash: h2, Version: 2, Seq: 2, N: cur.N, Rankings: cur.Rankings}
	raw, _ := json.Marshal(snap)
	if err := writeFileSync(filepath.Join(dir, datasetsDir, h0, snapshotFile), raw); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r := open(t, dir, -1)
	info, ok := r.Info(h2)
	if !ok || info.Version != 2 || info.LogRecords != 0 {
		t.Fatalf("seq-anchored reopen Info = %+v ok=%v, want version 2 and 0 pending records", info, ok)
	}
	sess, _, err := r.Rebuild(h2)
	if err != nil || !sess.Pairs().Equal(rankagg.NewPairs(cur)) {
		t.Fatalf("seq-anchored replay differs from fresh build (err=%v)", err)
	}
}

func TestDeleteTombstone(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(23))
	d := randDataset(rng, 4, 2)

	s := open(t, dir, -1)
	hash, _, err := s.Create(d, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	deleted, err := s.Delete(hash)
	if err != nil || !deleted {
		t.Fatalf("Delete: deleted=%v err=%v", deleted, err)
	}
	if s.Has(hash) {
		t.Fatalf("Has after Delete = true")
	}
	if _, err := os.Stat(filepath.Join(dir, datasetsDir, hash)); !os.IsNotExist(err) {
		t.Fatalf("dataset dir survives Delete: %v", err)
	}
	if again, err := s.Delete(hash); err != nil || again {
		t.Fatalf("second Delete: deleted=%v err=%v, want false nil", again, err)
	}
	s.Close()
	if r := open(t, dir, -1); r.Has(hash) {
		t.Fatalf("deleted dataset resurrected on reopen")
	}
}

// TestDeleteCrashMidRemoval leaves a tombstoned directory on disk (the
// crash window between the tombstone fsync and RemoveAll); reopen must
// finish the cleanup rather than resurrect the dataset.
func TestDeleteCrashMidRemoval(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(29))
	d := randDataset(rng, 4, 2)

	s := open(t, dir, -1)
	hash, _, err := s.Create(d, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	s.Close()
	appendRaw(t, dir, hash, logRecord{Seq: 1, Op: opTombstone})

	r := open(t, dir, -1)
	if r.Has(hash) {
		t.Fatalf("tombstoned dataset resurrected on reopen")
	}
	if _, err := os.Stat(filepath.Join(dir, datasetsDir, hash)); !os.IsNotExist(err) {
		t.Fatalf("tombstoned dir not cleaned up on reopen: %v", err)
	}
}

func TestAppendPatchValidation(t *testing.T) {
	s := open(t, t.TempDir(), -1)
	rng := rand.New(rand.NewSource(31))
	d := randDataset(rng, 4, 2)
	hash, _, err := s.Create(d, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	if _, _, err := s.AppendPatch("ffffffffffffffffffffffffffffffff", nil, []*rankings.Ranking{d.Rankings[0]}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown hash: err = %v, want ErrNotFound", err)
	}
	absent := rankings.New([]int{3, 2}, []int{1}, []int{0})
	if absent.Equal(d.Rankings[0]) || absent.Equal(d.Rankings[1]) {
		t.Skip("unlucky seed: crafted ranking collides with dataset")
	}
	if _, _, err := s.AppendPatch(hash, nil, []*rankings.Ranking{absent}); !errors.Is(err, rankagg.ErrRankingNotFound) {
		t.Fatalf("absent removal: err = %v, want ErrRankingNotFound", err)
	}
	if _, _, err := s.AppendPatch(hash, nil, []*rankings.Ranking{d.Rankings[0], d.Rankings[1]}); !errors.Is(err, rankagg.ErrDatasetEmptied) {
		t.Fatalf("emptying delta: err = %v, want ErrDatasetEmptied", err)
	}
	short := rankings.New([]int{0, 1})
	if _, _, err := s.AppendPatch(hash, []*rankings.Ranking{short}, nil); err == nil {
		t.Fatalf("short add accepted; want universe-coverage error")
	}
	// None of the rejected deltas may have touched the log.
	if info, _ := s.Info(hash); info.LogRecords != 0 || info.Version != 0 {
		t.Fatalf("rejected deltas reached the log: %+v", info)
	}
}

func TestSaveConsensusRotation(t *testing.T) {
	s := open(t, t.TempDir(), -1)
	rng := rand.New(rand.NewSource(37))
	d := randDataset(rng, 5, 3)
	h0, _, err := s.Create(d, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	best := &ResultWire{Algorithm: "bioconsert", Consensus: randRanking(rng, 5), Score: 3}
	s.SaveConsensus(h0, "00000000000000000000000000000001", best)

	h1 := mustPatch(t, s, h0, []*rankings.Ranking{randRanking(rng, 5)}, nil)
	entries, warm, _, ok := s.Consensus(h1)
	if !ok || len(entries) != 0 || warm == nil || warm.Score != 3 {
		t.Fatalf("post-rotation consensus: entries=%v warm=%+v ok=%v", entries, warm, ok)
	}
	if _, _, _, ok := s.Consensus(h0); ok {
		t.Fatalf("rotated-away hash still answers Consensus")
	}
	// A save under the rotated-away hash is dropped, and a fresh save
	// under the current hash spends the warm hint.
	s.SaveConsensus(h0, "00000000000000000000000000000002", best)
	s.SaveConsensus(h1, "00000000000000000000000000000003",
		&ResultWire{Algorithm: "anneal", Consensus: randRanking(rng, 5), Score: 8})
	entries, warm, _, ok = s.Consensus(h1)
	if !ok || len(entries) != 1 || warm != nil {
		t.Fatalf("post-save consensus: entries=%v warm=%+v ok=%v", entries, warm, ok)
	}
}

// TestCreateAfterRotationDoesNotReuseDir is the REVIEW.md high-severity
// repro: a dataset's directory is named by its creation hash, a PATCH
// rotates the index key but not the directory — so re-creating the original
// content must NOT land in (and clobber) the rotated dataset's directory.
func TestCreateAfterRotationDoesNotReuseDir(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	d := randDataset(rng, 5, 3)

	s := open(t, dir, -1)
	h0, _, err := s.Create(d, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	h1 := mustPatch(t, s, h0, []*rankings.Ranking{randRanking(rng, 5)}, nil)

	// h0 is free in the index, but its directory still belongs to the
	// rotated dataset.
	h0b, created, err := s.Create(d, nil)
	if err != nil || !created || h0b != h0 {
		t.Fatalf("re-Create: hash=%s created=%v err=%v, want %s true nil", h0b, created, err, h0)
	}
	if !s.Has(h0) || !s.Has(h1) {
		t.Fatalf("Has(h0)=%v Has(h1)=%v after re-create, want both", s.Has(h0), s.Has(h1))
	}
	// Both datasets keep appending to their OWN logs.
	h2 := mustPatch(t, s, h1, []*rankings.Ranking{randRanking(rng, 5)}, nil)
	s.Close()

	// Both survive a restart with their exact states — before the fix the
	// re-create reset the shared snapshot and the rotated dataset (or its
	// acknowledged PATCH) was lost.
	r := open(t, dir, -1)
	if got := r.List(); len(got) != 2 {
		t.Fatalf("List after reopen = %d datasets, want 2 (%+v)", len(got), got)
	}
	if d0, _, err := r.Dataset(h0); err != nil || d0.Hash() != h0 {
		t.Fatalf("re-created dataset lost after restart: err=%v", err)
	}
	if d2, _, err := r.Dataset(h2); err != nil || d2.Hash() != h2 {
		t.Fatalf("rotated dataset's PATCH lost after restart: err=%v", err)
	}
	if _, _, err := r.Rebuild(h2); err != nil {
		t.Fatalf("Rebuild(h2): %v", err)
	}
}

// TestUnappliableRecordTruncatedOnDisk covers the REVIEW.md medium finding:
// a checksum-valid record that fails to apply must be truncated OUT OF THE
// FILE (with everything after it), exactly like a CRC-corrupt tail — left
// in place it would shadow later appends with duplicate sequence numbers.
func TestUnappliableRecordTruncatedOnDisk(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	d := randDataset(rng, 5, 3)

	s := open(t, dir, -1)
	h0, _, err := s.Create(d, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	added := randRanking(rng, 5)
	h1 := mustPatch(t, s, h0, []*rankings.Ranking{added}, nil)
	cur, err := applyDelta(d, []*rankings.Ranking{added}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	logPath := filepath.Join(dir, datasetsDir, h0, deltaLogFile)
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	goodLen := fi.Size()

	// A well-framed record that cannot apply (removes a ranking the dataset
	// does not hold), then a perfectly applicable record after it.
	bogus := randRanking(rng, 5)
	for i := 0; containsRanking(cur, bogus); i++ {
		bogus = randRanking(rng, 5)
		if i > 100 {
			t.Fatal("could not find a ranking outside the dataset")
		}
	}
	appendRaw(t, dir, h0, logRecord{Seq: 2, Op: opPatch, Remove: []*rankings.Ranking{bogus}})
	appendRaw(t, dir, h0, logRecord{Seq: 3, Op: opPatch, Add: []*rankings.Ranking{randRanking(rng, 5)}})

	r := open(t, dir, -1)
	if st := r.Stats(); st.Truncations != 1 {
		t.Fatalf("Stats.Truncations = %d, want 1", st.Truncations)
	}
	if !r.Has(h1) {
		t.Fatalf("intact prefix at %s not served", h1)
	}
	if fi, err := os.Stat(logPath); err != nil || fi.Size() != goodLen {
		t.Fatalf("log not truncated at the unappliable record: %d bytes, want %d (err=%v)", fi.Size(), goodLen, err)
	}
	// New appends take the freed sequence numbers and survive replay —
	// before the fix the stale tail was skipped once, then duplicated seqs
	// forever.
	h2 := mustPatch(t, r, h1, []*rankings.Ranking{randRanking(rng, 5)}, nil)
	r.Close()
	r2 := open(t, dir, -1)
	if _, _, err := r2.Dataset(h2); err != nil {
		t.Fatalf("append after truncation lost on reopen: %v", err)
	}
	if _, _, err := r2.Rebuild(h2); err != nil {
		t.Fatalf("Rebuild(h2): %v", err)
	}
}

func containsRanking(d *rankings.Dataset, r *rankings.Ranking) bool {
	for _, have := range d.Rankings {
		if have.Equal(r) {
			return true
		}
	}
	return false
}

// TestAppendRecordDiverged: when neither the append nor its rollback can
// reach the file, the error must carry ErrLogDiverged so the dataset
// latches read-only instead of reusing the orphaned sequence number.
func TestAppendRecordDiverged(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	f.Close() // every subsequent Write/Truncate fails
	if _, err := appendRecord(f, []byte("x"), 0); !errors.Is(err, ErrLogDiverged) {
		t.Fatalf("appendRecord on dead file: err=%v, want ErrLogDiverged", err)
	}
}
