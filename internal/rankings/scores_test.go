package rankings

import (
	"reflect"
	"strings"
	"testing"
)

func TestFromScoresBasic(t *testing.T) {
	r := FromScores(map[int]float64{0: 3.0, 1: 1.0, 2: 3.0, 3: 2.0}, 0)
	// Scores: 0 and 2 tie at 3.0 (first), then 3, then 1.
	want := [][]int{{0, 2}, {3}, {1}}
	if !reflect.DeepEqual(r.Buckets, want) {
		t.Errorf("Buckets = %v, want %v", r.Buckets, want)
	}
}

func TestFromScoresEpsilonGrouping(t *testing.T) {
	r := FromScores(map[int]float64{0: 1.00, 1: 0.95, 2: 0.5}, 0.1)
	// 0 and 1 are within 0.1 of the bucket top; 2 is not.
	if r.NumBuckets() != 2 || len(r.Buckets[0]) != 2 {
		t.Errorf("eps grouping wrong: %v", r)
	}
	exact := FromScores(map[int]float64{0: 1.00, 1: 0.95, 2: 0.5}, 0)
	if exact.NumBuckets() != 3 {
		t.Errorf("eps=0 must split all: %v", exact)
	}
}

func TestFromScoresEmpty(t *testing.T) {
	r := FromScores(nil, 0)
	if r.Len() != 0 {
		t.Errorf("empty scores should give empty ranking: %v", r)
	}
}

func TestParseScoreCSV(t *testing.T) {
	csv := `source,item,score
engineA,x,10
engineA,y,8
engineA,z,8
engineB,y,5
engineB,x,4
`
	d, u, err := ParseScoreCSV(strings.NewReader(csv), 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.M() != 2 || d.N != 3 {
		t.Fatalf("M=%d N=%d, want 2, 3", d.M(), d.N)
	}
	if got := u.Format(d.Rankings[0]); got != "[{x},{y,z}]" {
		t.Errorf("engineA ranking = %s, want [{x},{y,z}]", got)
	}
	if got := u.Format(d.Rankings[1]); got != "[{y},{x}]" {
		t.Errorf("engineB ranking = %s, want [{y},{x}]", got)
	}
	if d.Complete() {
		t.Error("engineB misses z: dataset must be incomplete")
	}
}

func TestParseScoreCSVErrors(t *testing.T) {
	cases := []string{
		"a,b\n",            // wrong arity
		"a,b,notanumber\n", // bad score
		"a,b,NaN\n",        // non-finite
		",item,1\n",        // empty source
		"src,,1\n",         // empty item
	}
	for _, c := range cases {
		if _, _, err := ParseScoreCSV(strings.NewReader(c), 0); err == nil {
			t.Errorf("ParseScoreCSV(%q) succeeded, want error", c)
		}
	}
}

// TestParseScoreCSVRejectsUnwritableNames: an item name holding ',', '}'
// or a line break is rejected with ParseRanking's check. Accepted, the
// first one made the CLI print [{A,B},{C}], which reads back as three
// elements.
func TestParseScoreCSVRejectsUnwritableNames(t *testing.T) {
	for _, name := range []string{`"A,B"`, `A}B`, "\"A\nB\"", "\"A\rB\""} {
		csv := "s1," + name + ",2\ns1,C,1\ns2," + name + ",2\ns2,C,1\n"
		_, _, err := ParseScoreCSV(strings.NewReader(csv), 0)
		if err == nil || !strings.Contains(err.Error(), "line break") {
			t.Errorf("ParseScoreCSV with item %s: err = %v, want the bracket-notation name error", name, err)
		}
	}
}

func TestDatasetFromScoresDuplicateKeepsLast(t *testing.T) {
	recs := []ScoreRecord{
		{"s", "a", 1},
		{"s", "b", 2},
		{"s", "a", 5}, // overrides
	}
	d, u, err := DatasetFromScores(recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Format(d.Rankings[0]); got != "[{a},{b}]" {
		t.Errorf("ranking = %s, want [{a},{b}] (a rescored to 5)", got)
	}
}
