package rankagg

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenDatasets are the small fixed inputs TestAlgorithmGolden pins every
// registered algorithm on: the paper's §2.2 example, permutations, rankings
// with ties, and top-k lists (incomplete, so only the matrix-free
// algorithms run on them).
var goldenDatasets = []struct {
	name  string
	lines []string
}{
	{"paper", []string{"A > D > B=C", "A > B=C > D", "D > A=C > B"}},
	{"perm", []string{
		"A > B > C > D > E > F > G",
		"B > A > D > C > F > E > G",
		"G > A > B > C > E > D > F",
		"A > C > B > E > D > G > F",
		"B > D > A > C > G > F > E",
	}},
	{"ties", []string{
		"A > B=C > D > E=F=G",
		"B > A=C=D > G > E=F",
		"A=B > C > E > D=F > G",
		"C > A > B=D=E > F=G",
		"A > B > C=D=E=F=G",
		"F=G > A=B=C=D=E",
	}},
	{"topk", []string{"A > B > C", "B > A > D", "C > E > A > F", "G > H > A", "B=C > H"}},
}

// goldenRow is one pinned run: the consensus (bucket order over the
// dataset's element IDs), its generalized Kemeny score and what the run
// reported about itself.
type goldenRow struct {
	Dataset     string      `json:"dataset"`
	Algorithm   string      `json:"algorithm"`
	Seed        int64       `json:"seed"`
	Consensus   *Ranking    `json:"consensus"`
	Score       int64       `json:"score"`
	Proved      bool        `json:"proved"`
	DeadlineHit bool        `json:"deadline_hit"`
	Stats       SearchStats `json:"stats"`
}

func goldenDataset(t *testing.T, lines []string) *Dataset {
	t.Helper()
	u := NewUniverse()
	rks := make([]*Ranking, len(lines))
	for i, l := range lines {
		r, err := ParseRanking(l, u)
		if err != nil {
			t.Fatal(err)
		}
		rks[i] = r
	}
	return NewDataset(u.Size(), rks...)
}

// TestAlgorithmGolden pins every registered algorithm's output on the
// golden datasets against testdata/algorithm_runs.golden, one JSON row per
// (dataset, algorithm, seed). Session.Run (RunMatrixFree on the top-k
// lists) produces the rows with two workers, at the default seed and at
// seed 7; Aggregate and AggregateWithPairs, which run at the default seed,
// must return the seed-0 row's consensus. On a mismatch the test prints
// the whole document it computed; an intended change of output is an
// edit of the golden file.
func TestAlgorithmGolden(t *testing.T) {
	ctx := context.Background()
	var got bytes.Buffer
	for _, ds := range goldenDatasets {
		d := goldenDataset(t, ds.lines)
		complete := d.Complete()
		var sess *Session
		var p *Pairs
		if complete {
			sess = newTestSession(t, d)
			p = NewPairs(d)
		}
		for _, name := range Algorithms() {
			if !complete && !MatrixFree(name) {
				continue
			}
			for _, seed := range []int64{0, 7} {
				opts := []Option{WithWorkers(2), WithSeed(seed)}
				var res *Result
				var err error
				if complete {
					res, err = sess.Run(ctx, name, opts...)
				} else {
					res, err = RunMatrixFree(ctx, name, d, opts...)
				}
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", ds.name, name, seed, err)
				}
				row := goldenRow{
					Dataset: ds.name, Algorithm: name, Seed: seed,
					Consensus: res.Consensus, Score: res.Score,
					Proved: res.Proved, DeadlineHit: res.DeadlineHit, Stats: res.Stats,
				}
				line, err := json.Marshal(row)
				if err != nil {
					t.Fatal(err)
				}
				got.Write(line)
				got.WriteByte('\n')
				if seed != 0 {
					continue
				}
				one, err := Aggregate(name, d)
				if err != nil {
					t.Fatalf("Aggregate(%s) on %s: %v", name, ds.name, err)
				}
				withPairs, err := AggregateWithPairs(name, d, p)
				if err != nil {
					t.Fatalf("AggregateWithPairs(%s) on %s: %v", name, ds.name, err)
				}
				for entry, r := range map[string]*Ranking{"Aggregate": one, "AggregateWithPairs": withPairs} {
					if !r.Equal(res.Consensus) {
						t.Errorf("%s(%s) on %s = %v, Session.Run gave %v", entry, name, ds.name, r, res.Consensus)
					}
				}
			}
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "algorithm_runs.golden"))
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	bad := 0
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			bad++
			t.Errorf("line %d differs:\n got  %s\n want %s", i+1, g, w)
		}
	}
	if bad > 0 {
		t.Logf("full output:\n%s", got.String())
	}
}
