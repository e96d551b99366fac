package rankings

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAndLen(t *testing.T) {
	r := New([]int{0}, []int{1, 2})
	if got := r.Len(); got != 3 {
		t.Errorf("Len() = %d, want 3", got)
	}
	if got := r.NumBuckets(); got != 2 {
		t.Errorf("NumBuckets() = %d, want 2", got)
	}
	if r.IsPermutation() {
		t.Error("IsPermutation() = true for ranking with a tie")
	}
}

func TestFromPermutation(t *testing.T) {
	r := FromPermutation([]int{2, 0, 1})
	if !r.IsPermutation() {
		t.Fatal("FromPermutation result is not a permutation")
	}
	want := [][]int{{2}, {0}, {1}}
	if !reflect.DeepEqual(r.Buckets, want) {
		t.Errorf("Buckets = %v, want %v", r.Buckets, want)
	}
}

func TestFromPositions(t *testing.T) {
	// pos: element 0 in bucket 1, elements 1,2 in bucket 2, element 3 absent.
	r := FromPositions([]int{1, 2, 2, 0})
	want := [][]int{{0}, {1, 2}}
	if !reflect.DeepEqual(r.Buckets, want) {
		t.Errorf("Buckets = %v, want %v", r.Buckets, want)
	}
}

func TestFromPositionsNonContiguous(t *testing.T) {
	r := FromPositions([]int{5, 9, 9, 2})
	want := [][]int{{3}, {0}, {1, 2}}
	if !reflect.DeepEqual(r.Buckets, want) {
		t.Errorf("Buckets = %v, want %v", r.Buckets, want)
	}
}

func TestPositionsRoundTrip(t *testing.T) {
	r := New([]int{3}, []int{0, 2}, []int{1})
	pos := r.Positions(5)
	want := []int{2, 3, 2, 1, 0}
	if !reflect.DeepEqual(pos, want) {
		t.Errorf("Positions = %v, want %v", pos, want)
	}
	back := FromPositions(pos)
	if !back.Equal(r) {
		t.Errorf("round trip: got %v, want %v", back, r)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		r    *Ranking
		ok   bool
	}{
		{"valid", New([]int{0}, []int{1, 2}), true},
		{"empty ranking", New(), true},
		{"empty bucket", New([]int{0}, nil), false},
		{"duplicate", New([]int{0}, []int{0}), false},
		{"duplicate in bucket", New([]int{1, 1}), false},
		{"negative", New([]int{-1}), false},
	}
	for _, tc := range cases {
		err := tc.r.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestEqualIgnoresBucketInternalOrder(t *testing.T) {
	a := New([]int{0}, []int{2, 1})
	b := New([]int{0}, []int{1, 2})
	if !a.Equal(b) {
		t.Error("rankings differing only in bucket-internal order must be Equal")
	}
	c := New([]int{0, 1}, []int{2})
	if a.Equal(c) {
		t.Error("different bucket orders must not be Equal")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := New([]int{0}, []int{1, 2})
	b := a.Clone()
	b.Buckets[1][0] = 9
	if a.Buckets[1][0] == 9 {
		t.Error("Clone shares bucket storage with original")
	}
}

func TestString(t *testing.T) {
	r := New([]int{0}, []int{2, 1})
	if got, want := r.String(), "[{0},{1,2}]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestContainsAndElements(t *testing.T) {
	r := New([]int{4}, []int{1, 3})
	if !r.Contains(3) || r.Contains(0) {
		t.Error("Contains gave wrong answers")
	}
	if got, want := r.Elements(), []int{4, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("Elements() = %v, want %v", got, want)
	}
	if got := r.MaxElement(); got != 4 {
		t.Errorf("MaxElement() = %d, want 4", got)
	}
}

func TestMaxElementEmpty(t *testing.T) {
	if got := New().MaxElement(); got != -1 {
		t.Errorf("MaxElement() on empty = %d, want -1", got)
	}
}

func TestDatasetBasics(t *testing.T) {
	r1 := New([]int{0}, []int{1})
	r2 := New([]int{1}, []int{0})
	d := FromRankings(r1, r2)
	if d.N != 2 || d.M() != 2 {
		t.Fatalf("FromRankings: N=%d M=%d, want 2, 2", d.N, d.M())
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !d.Complete() {
		t.Error("dataset over same elements should be Complete")
	}
}

func TestDatasetIncomplete(t *testing.T) {
	r1 := New([]int{0}, []int{1})
	r2 := New([]int{2})
	d := FromRankings(r1, r2)
	if d.Complete() {
		t.Error("dataset with partial rankings must not be Complete")
	}
	if got, want := d.ElementsInAll(), []int(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("ElementsInAll = %v, want %v", got, want)
	}
	if got, want := d.ElementsInAny(), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("ElementsInAny = %v, want %v", got, want)
	}
}

func TestDatasetValidateOutsideUniverse(t *testing.T) {
	d := NewDataset(2, New([]int{0}, []int{5}))
	if err := d.Validate(); err == nil {
		t.Error("Validate must reject element outside universe")
	}
}

func TestUniverse(t *testing.T) {
	u := NewUniverse()
	a := u.ID("A")
	b := u.ID("B")
	if a == b {
		t.Fatal("distinct names got same ID")
	}
	if got := u.ID("A"); got != a {
		t.Error("repeated name got a new ID")
	}
	if got := u.Name(a); got != "A" {
		t.Errorf("Name(%d) = %q, want A", a, got)
	}
	if _, ok := u.Lookup("C"); ok {
		t.Error("Lookup of unknown name reported ok")
	}
	if u.Size() != 2 {
		t.Errorf("Size = %d, want 2", u.Size())
	}
}

func TestParseBracket(t *testing.T) {
	u := NewUniverse()
	r, err := ParseRanking("[{A},{B,C}]", u)
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Format(r); got != "[{A},{B,C}]" {
		t.Errorf("Format = %q", got)
	}
	if r.NumBuckets() != 2 || r.Len() != 3 {
		t.Errorf("parsed shape wrong: %v", r)
	}
}

func TestParseCompact(t *testing.T) {
	u := NewUniverse()
	r, err := ParseRanking("A > B=C > D", u)
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Format(r); got != "[{A},{B,C},{D}]" {
		t.Errorf("Format = %q", got)
	}
}

// TestParseErrors also pins that a rejected string adds no names, so it
// leaves no phantom elements to inflate a later dataset's N. "A,B > C" and
// "A}x > B" hold names Format cannot write back: accepted, the first was
// written as [{A,B},{C}] and read back as three elements, and the second
// was written as a line ReadDataset rejects.
func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "[{A}", "[A}]", "[{}]", "[{A},{A}]", "A>>B",
		"A,B > C", "A}x > B", "A > B\nC", "[{A\rB}]", "A > B >", "[{A},{B},{}]", "[{A},{B}x]", "A > A"} {
		u := NewUniverse()
		if _, err := ParseRanking(s, u); err == nil {
			t.Errorf("ParseRanking(%q) succeeded, want error", s)
		}
		if u.Size() != 0 {
			t.Errorf("rejected %q left %q in the universe", s, u.Names())
		}
	}
}

// bucketNames returns r's buckets as names from u, each bucket sorted (the
// order Universe.Format writes).
func bucketNames(r *Ranking, u *Universe) [][]string {
	out := make([][]string, len(r.Buckets))
	for i, b := range r.Buckets {
		for _, e := range b {
			out[i] = append(out[i], u.Name(e))
		}
		slices.Sort(out[i])
	}
	return out
}

// FuzzParseRanking fuzzes the bucket-text parser. The seed corpus
// (testdata/fuzz/FuzzParseRanking) holds the paper's three §2.2 rankings
// in both notations and strings with names Format cannot write back. The
// parse must not panic; an accepted ranking is valid and Universe.Format
// writes it as one line that parses back to the same names in every
// bucket; a rejected string adds no names to a universe that already holds
// one.
func FuzzParseRanking(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		u := NewUniverse()
		u.ID("Z")
		r, err := ParseRanking(s, u)
		if err != nil {
			if u.Size() != 1 {
				t.Fatalf("ParseRanking(%q) failed (%v) but grew the universe to %q", s, err, u.Names())
			}
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("ParseRanking(%q) accepted an invalid ranking %v: %v", s, r.Buckets, err)
		}
		text := u.Format(r)
		if strings.ContainsAny(text, "\n\r") {
			t.Fatalf("ParseRanking(%q): Format wrote %q, more than one line", s, text)
		}
		u2 := NewUniverse()
		back, err := ParseRanking(text, u2)
		if err != nil {
			t.Fatalf("ParseRanking(%q): Format wrote %q, which does not parse: %v", s, text, err)
		}
		if got, want := bucketNames(back, u2), bucketNames(r, u); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("ParseRanking(%q): Format wrote %q, which parses to %q, want %q", s, text, got, want)
		}
	})
}

func TestParseDatasetRoundTrip(t *testing.T) {
	in := "# comment\n[{A},{D},{B,C}]\n[{A},{B,C},{D}]\n\n[{D},{A,C},{B}]\n"
	d, u, err := ParseDataset(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.M() != 3 || d.N != 4 {
		t.Fatalf("M=%d N=%d, want 3, 4", d.M(), d.N)
	}
	var buf bytes.Buffer
	if err := WriteDataset(&buf, d, u); err != nil {
		t.Fatal(err)
	}
	want := "[{A},{D},{B,C}]\n[{A},{B,C},{D}]\n[{D},{A,C},{B}]\n"
	if buf.String() != want {
		t.Errorf("WriteDataset = %q, want %q", buf.String(), want)
	}
}

// randomRanking builds a random valid ranking over elements 0..n-1.
func randomRanking(rng *rand.Rand, n int) *Ranking {
	perm := rng.Perm(n)
	r := &Ranking{}
	for i := 0; i < n; {
		sz := 1 + rng.Intn(3)
		if i+sz > n {
			sz = n - i
		}
		r.Buckets = append(r.Buckets, append([]int(nil), perm[i:i+sz]...))
		i += sz
	}
	return r
}

func TestQuickPositionsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		n := 1 + int(seed%20+20)%20
		r := randomRanking(rng, n)
		return FromPositions(r.Positions(n)).Equal(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickStringParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		n := 1 + rng.Intn(12)
		r := randomRanking(rng, n)
		u := NewUniverse()
		// Names "0".."11" map to IDs in first-seen order, so rebuild via a
		// dataset-level universe keyed by the numeric name.
		parsed, err := ParseRanking(r.String(), u)
		if err != nil {
			t.Fatalf("parse %q: %v", r.String(), err)
		}
		if parsed.Len() != r.Len() || parsed.NumBuckets() != r.NumBuckets() {
			t.Fatalf("round trip changed shape: %v vs %v", parsed, r)
		}
	}
}
