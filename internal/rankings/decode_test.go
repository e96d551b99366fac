package rankings

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// oracleDecode is the reference Ranking.UnmarshalJSON is checked against:
// encoding/json's reflective decode into [][]int followed by a map-based
// validation.
func oracleDecode(data []byte) ([][]int, error) {
	var buckets [][]int
	if err := json.Unmarshal(data, &buckets); err != nil {
		return nil, err
	}
	if err := oracleValidate(buckets); err != nil {
		return nil, err
	}
	return buckets, nil
}

func oracleValidate(buckets [][]int) error {
	seen := make(map[int]bool)
	for i, b := range buckets {
		if len(b) == 0 {
			return fmt.Errorf("bucket %d is empty", i)
		}
		for _, e := range b {
			if e < 0 {
				return fmt.Errorf("negative element ID %d in bucket %d", e, i)
			}
			if seen[e] {
				return fmt.Errorf("element %d appears more than once", e)
			}
			seen[e] = true
		}
	}
	return nil
}

// checkAgainstOracle: UnmarshalJSON accepts exactly what the oracle
// accepts, with deeply equal buckets; Validate agrees with the oracle's
// validator on whatever encoding/json decoded; and an accepted ranking
// round-trips through MarshalJSON.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := oracleDecode(data)
	var r Ranking
	gotErr := r.UnmarshalJSON(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("UnmarshalJSON(%q): err = %v, oracle err = %v", data, gotErr, wantErr)
	}
	var decoded [][]int
	if json.Unmarshal(data, &decoded) == nil {
		if got, want := (&Ranking{Buckets: decoded}).Validate() == nil, oracleValidate(decoded) == nil; got != want {
			t.Fatalf("Validate(%v) ok = %v, oracle ok = %v", decoded, got, want)
		}
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(r.Buckets, want) {
		t.Fatalf("UnmarshalJSON(%q) = %#v, oracle %#v", data, r.Buckets, want)
	}
	enc, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Ranking
	if err := back.UnmarshalJSON(enc); err != nil {
		t.Fatalf("re-decoding %s: %v", enc, err)
	}
	if len(r.Buckets) > 0 && !reflect.DeepEqual(back.Buckets, r.Buckets) {
		t.Fatalf("round trip of %q: %#v, want %#v", data, back.Buckets, r.Buckets)
	}
}

// FuzzRankingJSON differentially tests the hand-written ranking decoder
// against encoding/json plus the map-based validator on arbitrary bytes.
// Its seed corpus (testdata/fuzz/FuzzRankingJSON) runs in plain go test.
func FuzzRankingJSON(f *testing.F) {
	f.Add([]byte(`[[0],[3],[1,2]]`))
	f.Fuzz(checkAgainstOracle)
}

// TestRankingJSONMatchesOracle runs the differential check over random
// valid rankings, each rewritten with random whitespace and mutated one
// byte at a time, so accepted and rejected inputs both get coverage
// without the fuzzing engine.
func TestRankingJSONMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := []string{"", " ", "\t", "\n", "\r", "  "}
	alphabet := []byte("[],-0123456789 .eE\"nul")
	for i := 0; i < 300; i++ {
		r := randomRanking(rng, 1+rng.Intn(12))
		for _, b := range r.Buckets {
			for j := range b {
				if rng.Intn(8) == 0 {
					b[j] += 1 << (10 + rng.Intn(53))
				}
			}
		}
		enc, _ := r.MarshalJSON()
		var sb strings.Builder
		sb.WriteString(ws[rng.Intn(len(ws))])
		for _, c := range enc {
			sb.WriteByte(c)
			if c == '[' || c == ']' || c == ',' {
				sb.WriteString(ws[rng.Intn(len(ws))])
			}
		}
		data := []byte(sb.String())
		checkAgainstOracle(t, data)
		for k := 0; k < 5; k++ {
			mut := append([]byte(nil), data...)
			mut[rng.Intn(len(mut))] = alphabet[rng.Intn(len(alphabet))]
			checkAgainstOracle(t, mut)
		}
	}
}

// TestRankingJSONBucketsAreWindows: decoded buckets share one backing
// array but appending to one never overwrites the next.
func TestRankingJSONBucketsAreWindows(t *testing.T) {
	var r Ranking
	if err := r.UnmarshalJSON([]byte(`[[0,1],[2],[3,4]]`)); err != nil {
		t.Fatal(err)
	}
	_ = append(r.Buckets[0], 99)
	_ = append(r.Buckets[1], 99)
	if want := [][]int{{0, 1}, {2}, {3, 4}}; !reflect.DeepEqual(r.Buckets, want) {
		t.Errorf("after appends: %v, want %v", r.Buckets, want)
	}
}

// TestValidateAllocationBoundedByLength: a two-element ranking naming a
// huge ID costs a few hundred bytes to validate and to decode, never
// O(largest ID).
func TestValidateAllocationBoundedByLength(t *testing.T) {
	data := []byte(`[[0],[4611686018427387903]]`)
	r := New([]int{0}, []int{4611686018427387903})
	cases := []struct {
		name      string
		maxAllocs float64
		run       func() error
	}{
		{"Validate", 1, r.Validate},
		{"UnmarshalJSON", 3, func() error {
			var r Ranking
			return r.UnmarshalJSON(data)
		}},
	}
	for _, c := range cases {
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { c.run() }); allocs > c.maxAllocs {
			t.Errorf("%s: %v allocations per run, want at most %v", c.name, allocs, c.maxAllocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			c.run()
		}
		runtime.ReadMemStats(&after)
		if perRun := (after.TotalAlloc - before.TotalAlloc) / 100; perRun > 512 {
			t.Errorf("%s: %d bytes allocated per run, want a few hundred at most", c.name, perRun)
		}
	}
}

// TestValidateBitmapAndSortedAgree: both duplicate finders — the bitmap
// for dense IDs, the sorted copy for sparse ones — reject every duplicate
// and accept every distinct ranking.
func TestValidateBitmapAndSortedAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		n := 2 + rng.Intn(40)
		spread := 1 + rng.Intn(4*bitmapFactor)
		r := &Ranking{}
		for j := 0; j < n; j++ {
			e := rng.Intn(n * spread)
			if len(r.Buckets) == 0 || rng.Intn(3) == 0 {
				r.Buckets = append(r.Buckets, nil)
			}
			last := len(r.Buckets) - 1
			r.Buckets[last] = append(r.Buckets[last], e)
		}
		if got, want := r.Validate() == nil, oracleValidate(r.Buckets) == nil; got != want {
			t.Fatalf("Validate(%v) ok = %v, oracle ok = %v", r.Buckets, got, want)
		}
	}
}

// BenchmarkRankingDecode decodes and validates one ranking. Its
// allocations per op stay constant as the bucket count grows.
func BenchmarkRankingDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ties := make([][]int, 0, 3000)
	perm := rng.Perm(12000)
	for i := 0; i < len(perm); i += 4 {
		ties = append(ties, perm[i:i+4])
	}
	cases := []struct {
		name string
		r    *Ranking
	}{
		{"permutation-5000", FromPermutation(rng.Perm(5000))},
		{"ties-12000x4", &Ranking{Buckets: ties}},
		{"top-100", FromPermutation(rng.Perm(5000)[:100])},
	}
	for _, c := range cases {
		data, err := c.r.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				var r Ranking
				if err := r.UnmarshalJSON(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
