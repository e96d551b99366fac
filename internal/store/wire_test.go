package store

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rankagg/internal/rankings"
)

// TestSnapshotWriterMatchesMarshal: over random datasets, complete with
// ties or top-k lists, with and without names (some that encoding/json
// escapes or repairs), and with the version and sequence number a
// compaction writes, marshalSnapshot writes json.Marshal's bytes.
func TestSnapshotWriterMatchesMarshal(t *testing.T) {
	odd := []string{"<b>", "a&b", `say "hi"`, "back\\slash", "line\u2028sep", "para\u2029sep", "\xff\xfe", "tab\there", "é", "", "\x00"}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		d, names := randomStoreDataset(rng)
		if names != nil && rng.Intn(2) == 0 {
			for j := range names {
				names[j] = odd[rng.Intn(len(odd))] + fmt.Sprint(j)
			}
		}
		snap := &snapshotWire{Hash: d.Hash(), N: d.N, Names: names, Rankings: d.Rankings}
		if rng.Intn(2) == 0 {
			snap.Version, snap.Seq = uint64(rng.Int63()), rng.Int63()
		}
		checkSnapshotWriter(t, snap)
	}
	// Values no store writes still encode as json.Marshal encodes them.
	for _, snap := range []*snapshotWire{
		{},
		{Hash: "<&>", N: -3, Seq: -1, Names: []string{}, Rankings: []*rankings.Ranking{}},
		{N: 2, Rankings: []*rankings.Ranking{nil, {}, rankings.New(nil, []int{}, []int{-1, 1 << 62})}},
	} {
		checkSnapshotWriter(t, snap)
	}
}

// TestOpenRetiresDuplicateDirectory: two directories that replay to one
// content leave one dataset, and the other directory is removed from
// disk, not just closed.
func TestOpenRetiresDuplicateDirectory(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	d := randDataset(rand.New(rand.NewSource(3)), 6, 3)
	hash, _, err := s.Create(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	root := filepath.Join(dir, datasetsDir)
	dup := filepath.Join(root, hash+"-1")
	if err := os.Mkdir(dup, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{snapshotFile, deltaLogFile} {
		data, err := os.ReadFile(filepath.Join(root, hash, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dup, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r := open(t, dir, 0)
	if st := r.Stats(); st.Datasets != 1 {
		t.Fatalf("%d datasets after reopening two copies of one, want 1", st.Datasets)
	}
	if _, err := os.Stat(dup); !os.IsNotExist(err) {
		t.Errorf("duplicate directory still on disk after Open (stat err %v)", err)
	}
	if got, _, err := r.Dataset(hash); err != nil || got.Hash() != hash {
		t.Errorf("Dataset(%s) after Open: %v", hash, err)
	}
}

// BenchmarkSnapshotWrite encodes a snapshot of approx-wire's shape, 100
// top-100 lists over n=5000, with the store's writer and with
// json.Marshal, which it replaced.
func BenchmarkSnapshotWrite(b *testing.B) {
	const n = 5000
	rng := rand.New(rand.NewSource(1))
	d := rankings.NewDataset(n)
	for range 100 {
		d.Rankings = append(d.Rankings, rankings.FromPermutation(rng.Perm(n)[:100]))
	}
	snap := &snapshotWire{Hash: d.Hash(), N: n, Rankings: d.Rankings}
	for _, c := range []struct {
		name  string
		write func(*snapshotWire) ([]byte, error)
	}{
		{"writer", marshalSnapshot},
		{"json.Marshal", func(s *snapshotWire) ([]byte, error) { return json.Marshal(s) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.write(snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
