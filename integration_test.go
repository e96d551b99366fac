package rankagg

// Full-pipeline integration tests: raw generated data → normalization →
// every registered algorithm → invariant checks, exercising the same path a
// downstream user follows.

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"rankagg/internal/gen"
)

func TestPipelineRawToConsensusAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	raw := gen.BioMedicalQuery(rng, gen.BioMedicalConfig{
		Genes: 12, Sources: 4, Coverage: 0.7, TieLevels: 5, Phi: 0.8, ScoreNoise: 0.3,
	})
	for _, normName := range []string{"unify", "project", "k-unify"} {
		var (
			d     *Dataset
			toOld []int
		)
		switch normName {
		case "unify":
			d, toOld, _ = Unify(raw)
		case "project":
			d, toOld, _ = Project(raw)
		case "k-unify":
			d, toOld, _ = KUnify(raw, 2)
		}
		_ = toOld
		if d.N < 2 {
			continue
		}
		exact, err := Aggregate("ExactAlgorithm", d)
		if err != nil {
			t.Fatalf("%s/exact: %v", normName, err)
		}
		opt := Score(exact, d)
		for _, name := range Algorithms() {
			if name == "Ailon3/2" && d.N > 45 {
				continue
			}
			c, err := Aggregate(name, d)
			if err != nil {
				t.Fatalf("%s/%s: %v", normName, name, err)
			}
			if c.Len() != d.N {
				t.Fatalf("%s/%s: consensus covers %d of %d elements", normName, name, c.Len(), d.N)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("%s/%s: invalid consensus: %v", normName, name, err)
			}
			if s := Score(c, d); s < opt {
				t.Fatalf("%s/%s: score %d beats the proved optimum %d", normName, name, s, opt)
			}
		}
	}
}

func TestPipelineCSVRoundTripThroughConsensus(t *testing.T) {
	csv := `s1,alpha,3
s1,beta,2
s1,gamma,2
s2,beta,9
s2,alpha,5
s2,gamma,5
s3,gamma,1
s3,alpha,1
s3,beta,0.5
`
	d, u, err := ParseScoreCSV(strings.NewReader(csv), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Complete() {
		t.Fatal("all sources rated all items: dataset should be complete")
	}
	c, err := Aggregate("ExactAlgorithm", d)
	if err != nil {
		t.Fatal(err)
	}
	// alpha: ranked first by s1, tied-first by s3, second by s2.
	a, ok := u.Lookup("alpha")
	if !ok {
		t.Fatal("alpha missing from universe")
	}
	pos := c.Positions(d.N)
	if pos[a] != 1 {
		t.Errorf("alpha should lead the consensus: %s", u.Format(c))
	}
}

func TestAutoAggregatorPicksAndRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	d := gen.UniformDataset(rng, 5, 10)
	c, err := Aggregate("Auto", d)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != d.N {
		t.Fatalf("Auto consensus covers %d of %d", c.Len(), d.N)
	}
	// Auto defaults to BioConsert's quality: never worse than every input.
	p := NewPairs(d)
	for _, in := range d.Rankings {
		if p.Score(c) > p.Score(in) {
			t.Errorf("Auto consensus worse than an input ranking")
		}
	}
}

// TestAutoHonoursRunDeadline: Auto's delegate runs under the run's context
// and options, so a time limit stops it as it stops BioConsert, the
// algorithm Auto picks here, and a cancel mid-run returns
// context.Canceled.
func TestAutoHonoursRunDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := newTestSession(t, gen.UniformDataset(rng, 40, 300))
	s.Pairs() // build the matrix before the timed runs
	for _, name := range []string{"BioConsert", "Auto"} {
		res, err := s.Run(context.Background(), name, WithTimeLimit(5*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if !res.DeadlineHit {
			t.Errorf("%s under a 5ms limit ran %v and reported DeadlineHit false", name, res.Elapsed)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(5*time.Millisecond, cancel)
	if _, err := s.Run(ctx, "Auto"); !errors.Is(err, context.Canceled) {
		t.Errorf("Auto cancelled mid-run: err %v, want context.Canceled", err)
	}
}
