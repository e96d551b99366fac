package rankings

import (
	"encoding/json"
	"math/rand"
	"testing"
)

func TestRankingJSONRoundTrip(t *testing.T) {
	r := New([]int{0}, []int{2, 1})
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "[[0],[2,1]]" {
		t.Errorf("marshal = %s", data)
	}
	var back Ranking
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(r) {
		t.Errorf("round trip changed ranking: %v vs %v", &back, r)
	}
}

// TestRankingMarshalMatchesEncodingJSON: the hand-written encoder emits
// the bytes json.Marshal gives for the bucket array — stored results
// written before it must compare equal to new ones — and sizes its buffer
// exactly, so encoding a consensus allocates its output once.
func TestRankingMarshalMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []*Ranking{
		{Buckets: [][]int{{}}},
		{Buckets: [][]int{nil, {7}}},
		{Buckets: [][]int{{-12, 0, 9}, {10, 99, 100}, {1 << 40, -(1 << 40)}}},
		FromPermutation([]int{123456789, 0, 1000}),
	}
	for i := 0; i < 50; i++ {
		cases = append(cases, randomRanking(rng, 1+rng.Intn(300)))
	}
	for _, r := range cases {
		got, err := r.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(r.Buckets)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("MarshalJSON = %s, json.Marshal(Buckets) = %s", got, want)
		}
		if cap(got) != len(got) {
			t.Errorf("MarshalJSON(%s): buffer capacity %d, length %d", got, cap(got), len(got))
		}
	}
}

func TestRankingJSONRejectsInvalid(t *testing.T) {
	for _, bad := range []string{"[[0],[0]]", "[[-1]]", "[[]]", "{"} {
		var r Ranking
		if err := json.Unmarshal([]byte(bad), &r); err == nil {
			t.Errorf("unmarshal(%q) succeeded, want error", bad)
		}
	}
}

func TestEmptyRankingJSON(t *testing.T) {
	var r Ranking
	data, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "[]" {
		t.Errorf("empty ranking = %s, want []", data)
	}
}

func TestDatasetWireDecode(t *testing.T) {
	var w DatasetWire
	if err := json.Unmarshal([]byte(`{"rankings":[[[0],[2,1]],[[1],[0,2]]]}`), &w); err != nil {
		t.Fatal(err)
	}
	d, u, err := w.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 3 || d.M() != 2 {
		t.Errorf("inferred shape N=%d M=%d, want 3, 2", d.N, d.M())
	}
	if u != nil {
		t.Error("expected nil universe without names")
	}

	// Names without an explicit n: the name count widens the universe.
	w = DatasetWire{Names: []string{"A", "B", "C", "D"}, Rankings: []*Ranking{New([]int{0}, []int{1})}}
	d, u, err = w.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 4 || u == nil || u.Name(3) != "D" {
		t.Errorf("Decode with names: N=%d u=%v", d.N, u)
	}
}

// TestDatasetWireDecodeErrors covers the malformed payloads the serving
// layer turns into 400s: broken JSON, structurally invalid rankings
// (duplicate elements, empty buckets, negative IDs), empty input, element
// IDs outside a declared universe, and bad name lists.
func TestDatasetWireDecodeErrors(t *testing.T) {
	unmarshal := []struct{ name, payload string }{
		{"not json", `{`},
		{"rankings not arrays", `{"rankings":["[{A}]"]}`},
		{"duplicate element across buckets", `{"rankings":[[[0],[0]]]}`},
		{"duplicate element within bucket", `{"rankings":[[[1,1]]]}`},
		{"empty bucket", `{"rankings":[[[]]]}`},
		{"negative element", `{"rankings":[[[-1]]]}`},
		{"null ranking", `{"rankings":[null]}`},
		{"null ranking after a valid one", `{"rankings":[[[0],[1]],null]}`},
		{"null ranking with a declared universe", `{"n":2,"rankings":[[[0],[1]],null]}`},
	}
	for _, c := range unmarshal {
		var w DatasetWire
		if err := json.Unmarshal([]byte(c.payload), &w); err == nil {
			if _, _, err := w.Decode(); err == nil {
				t.Errorf("%s: %q accepted, want error", c.name, c.payload)
			}
		}
	}

	decode := []struct {
		name string
		w    DatasetWire
	}{
		{"no rankings", DatasetWire{}},
		{"nil ranking", DatasetWire{Rankings: []*Ranking{New([]int{0}), nil}}},
		{"empty ranking list", DatasetWire{Rankings: []*Ranking{}}},
		{"element outside declared universe", DatasetWire{N: 1, Rankings: []*Ranking{New([]int{5})}}},
		{"name count mismatch", DatasetWire{N: 3, Names: []string{"A"}, Rankings: []*Ranking{New([]int{0})}}},
		{"duplicate names", DatasetWire{Names: []string{"A", "A"}, Rankings: []*Ranking{New([]int{0}, []int{1})}}},
	}
	for _, c := range decode {
		if _, _, err := c.w.Decode(); err == nil {
			t.Errorf("%s: accepted, want error", c.name)
		}
	}

	var w DatasetWire
	if _, _, err := w.Decode(); err != ErrNoRankings {
		t.Errorf("empty wire Decode err = %v, want ErrNoRankings", err)
	}
}

func TestBucketNames(t *testing.T) {
	u := NewUniverse()
	r := MustParse("[{B},{A,C}]", u)
	got := BucketNames(r, u)
	if len(got) != 2 || got[0][0] != "B" || len(got[1]) != 2 {
		t.Errorf("BucketNames = %v", got)
	}
	anon := BucketNames(New([]int{1}), nil)
	if anon[0][0] != "#1" {
		t.Errorf("BucketNames without universe = %v", anon)
	}
}
