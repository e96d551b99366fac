package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rankagg/internal/rankings"
)

// TestOpenCompatFixture opens a store directory written by an earlier
// release (testdata/compat) and pins what a restarted server would serve
// from it: each dataset's current hash, version, pending log length and
// persisted consensus. The fixture holds a complete dataset with ties and
// named elements, solved after its last PATCH (two entries), and a top-k
// list dataset whose second PATCH came after its solve (a warm hint); each
// has a two-record delta log, and the toplists log includes a partial add.
// A decoder or hash change that reads these files differently fails here.
func TestOpenCompatFixture(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/compat")); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, 0)

	type entry struct {
		algorithm string
		score     int64
		consensus string
		approx    bool
	}
	wire := func(w *ResultWire) entry {
		return entry{w.Algorithm, w.Score, w.Consensus.String(), w.Approx}
	}
	cases := []struct {
		name     string
		info     DatasetInfo
		names    []string
		rankings string
		entries  map[string]entry
		warm     *entry
	}{
		{
			name:     "complete with ties",
			info:     DatasetInfo{Hash: "d258f68d8ed06127bd5320b6364cd92d", N: 6, M: 5, Version: 3, LogRecords: 2},
			names:    []string{"A", "B", "C", "D", "E", "F"},
			rankings: "[{0},{3,5},{1,2},{4}] [{3},{0,2},{1},{5},{4}] [{4,5},{0},{1,2,3}] [{2},{0,4},{1,3,5}] [{1},{0},{2},{3},{4},{5}]",
			entries: map[string]entry{
				"0edf3aeba3de8ef31498a99cddf3ea80": {"BioConsert", 32, "[{0},{3},{1,2},{5},{4}]", false},
				"c5f595b9fe76efdd2aa9af141a01aeab": {"KwikSortMin", 32, "[{0},{2},{3},{1},{4},{5}]", false},
			},
		},
		{
			name:     "top-k lists",
			info:     DatasetInfo{Hash: "84831cfe72375b897d5762303ad6a96c", N: 10, M: 5, Version: 3, LogRecords: 2},
			rankings: "[{3},{1},{4}] [{6},{5},{3}] [{3},{5}] [{8},{9},{7},{0}] [{2},{6}]",
			warm:     &entry{"lehmer", 10, "[{3},{5},{0},{1},{2},{4},{6},{7},{8},{9}]", true},
		},
	}
	if got := len(s.List()); got != len(cases) {
		t.Fatalf("store holds %d datasets, want %d", got, len(cases))
	}
	for _, c := range cases {
		info, ok := s.Info(c.info.Hash)
		if !ok {
			t.Errorf("%s: hash %s not found", c.name, c.info.Hash)
			continue
		}
		info.Bytes = 0
		if info != c.info {
			t.Errorf("%s: info %+v, want %+v", c.name, info, c.info)
		}
		d, names, err := s.Dataset(c.info.Hash)
		if err != nil {
			t.Fatal(err)
		}
		var rks []string
		for _, r := range d.Rankings {
			rks = append(rks, r.String())
		}
		if got := strings.Join(rks, " "); got != c.rankings {
			t.Errorf("%s: rankings %s, want %s", c.name, got, c.rankings)
		}
		if d.Hash() != c.info.Hash || !reflect.DeepEqual(names, c.names) {
			t.Errorf("%s: dataset hashes to %s with names %v, want %s with %v", c.name, d.Hash(), names, c.info.Hash, c.names)
		}
		entries, warm, version, ok := s.Consensus(c.info.Hash)
		if !ok || version != c.info.Version {
			t.Fatalf("%s: Consensus ok=%v version=%d", c.name, ok, version)
		}
		got := map[string]entry{}
		for k, w := range entries {
			got[k] = wire(w)
		}
		if len(got) != len(c.entries) || (len(got) > 0 && !reflect.DeepEqual(got, c.entries)) {
			t.Errorf("%s: consensus entries %+v, want %+v", c.name, got, c.entries)
		}
		switch {
		case (warm == nil) != (c.warm == nil):
			t.Errorf("%s: warm hint %+v, want %+v", c.name, warm, c.warm)
		case warm != nil && wire(warm) != *c.warm:
			t.Errorf("%s: warm hint %+v, want %+v", c.name, wire(warm), *c.warm)
		}
	}
}

// TestOpenRejectsNullSnapshotRanking: a snapshot whose ranking list holds
// a null fails Open with an error naming it instead of panicking.
func TestOpenRejectsNullSnapshotRanking(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	hash, _, err := s.Create(rankings.NewDataset(2, rankings.New([]int{0}, []int{1})), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	snap, err := json.Marshal(map[string]any{"hash": hash, "n": 2, "rankings": []any{[][]int{{0}, {1}}, nil}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, datasetsDir, hash, snapshotFile), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil || !strings.Contains(err.Error(), "ranking 1") {
		t.Fatalf("Open over a null snapshot ranking: err = %v, want an error naming ranking 1", err)
	}
}
