package rankings

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// skipDoc reads data as one value the caller has no use for.
func skipDoc(data []byte) error {
	r := NewDocReader(data)
	err := r.Skip()
	if err == nil {
		err = r.End()
	}
	return err
}

// TestDocReaderGrammarMatchesValid: reading any document through Skip
// accepts exactly what json.Valid accepts — the grammar edge cases by
// hand, then random values mutated one byte at a time.
func TestDocReaderGrammarMatchesValid(t *testing.T) {
	check := func(data []byte) {
		t.Helper()
		if got, want := skipDoc(data) == nil, json.Valid(data); got != want {
			t.Fatalf("Skip(%q) ok = %v, json.Valid = %v", data, got, want)
		}
	}
	for _, c := range []string{
		``, ` `, `0`, `-0`, `-`, `01`, `1.`, `1.5`, `.5`, `1e`, `1e+`, `1E-7`, `1e5x`, `-01`,
		`true`, `tru`, `truex`, `false`, `null`, `nul`, `nullnull`,
		`""`, `"`, `"\"`, `"\\"`, `"\/\b\f\n\r\t"`, `"\x"`, `"\u12"`, `"\u12g4"`, `"\uABCD"`,
		"\"a\x01b\"", "\"a\x1fb\"", "\"a\x7fb\"", "\"\xff\xfe\"", "\"é\"",
		`[]`, `[ ]`, `[1,]`, `[,1]`, `[1 2]`, `[[]`, `[]]`, `{}`, `{ }`, `{"a"}`, `{"a":}`, `{"a":1,}`,
		`{"a":1 "b":2}`, `{1:2}`, `{"a":1}}`, `{"a":[1,{"b":null}]}`, "\t{\n\"a\" :\r1 }\n", `[1] [2]`,
		"\ufeff{}", `{"a":1}` + "\x00",
	} {
		check([]byte(c))
	}
	// encoding/json's limit: 10000 open containers.
	for _, depth := range []int{9999, 10000, 10001} {
		check([]byte(strings.Repeat("[", depth) + strings.Repeat("]", depth)))
		check([]byte(strings.Repeat(`{"a":`, depth) + "1" + strings.Repeat("}", depth)))
	}

	rng := rand.New(rand.NewSource(3))
	alphabet := []byte("[]{},:\"\\/-+.0123456789eEntrufals u\x01\x1f\xff")
	var value func(depth int) any
	value = func(depth int) any {
		switch k := rng.Intn(8); {
		case k == 0 && depth < 4:
			out := make([]any, rng.Intn(4))
			for i := range out {
				out[i] = value(depth + 1)
			}
			return out
		case k == 1 && depth < 4:
			out := make(map[string]any)
			for range rng.Intn(4) {
				out[string(rune('a'+rng.Intn(26)))+"\n\"é"[:rng.Intn(4)]] = value(depth + 1)
			}
			return out
		case k == 2:
			return rng.NormFloat64() * 1e6
		case k == 3:
			return rng.Int63() - rng.Int63()
		case k == 4:
			return "x\\\"\t "[:rng.Intn(8)]
		case k == 5:
			return rng.Intn(2) == 0
		default:
			return nil
		}
	}
	for i := 0; i < 2000; i++ {
		doc, err := json.Marshal(value(0))
		if err != nil {
			t.Fatal(err)
		}
		check(doc)
		for range 3 {
			mut := append([]byte(nil), doc...)
			mut[rng.Intn(len(mut))] = alphabet[rng.Intn(len(alphabet))]
			check(mut)
		}
	}
}

// TestDocReaderKeys: Object hands member every key in document order,
// repeats included, unescaped as encoding/json unescapes it.
func TestDocReaderKeys(t *testing.T) {
	doc := []byte(`{"a":1,"A":2,"a":3,"\ud800x":4,"é":5,"` + "\xff" + `":6,"a\"b\\":7,"é\n":{"z":8}}`)
	var got []string
	r := NewDocReader(doc)
	if _, err := r.Object(func(key string) error {
		got = append(got, key)
		return r.Skip()
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	var want []string
	dec := json.NewDecoder(strings.NewReader(string(doc)))
	dec.Token() // {
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("keys %q, want %q", got, want)
	}
}

// TestDocReaderNestingLimit: objects walked by Object, and the ranking at
// the bottom of them, count toward encoding/json's nesting limit like
// skipped values do.
func TestDocReaderNestingLimit(t *testing.T) {
	for _, depth := range []int{9998, 9999, 10000, 10001} {
		for _, bottom := range []string{`{}`, `[]`, `[[0]]`} {
			doc := []byte(strings.Repeat(`{"a":`, depth-1) + bottom + strings.Repeat("}", depth-1))
			r := NewDocReader(doc)
			var member func(string) error
			member = func(string) error {
				if bottom[0] == '[' && r.depth == depth-1 {
					_, _, err := r.Ranking()
					return err
				}
				_, err := r.Object(member)
				return err
			}
			_, err := r.Object(member)
			if got, want := err == nil, json.Valid(doc); got != want {
				t.Errorf("%s at depth %d: ok = %v, json.Valid = %v (err %v)", bottom, depth, got, want, err)
			}
		}
	}
}

// TestDocReaderRankings: an array of rankings decodes as encoding/json
// decodes it into []*Ranking, no ranking's bucket list has room to spare,
// and an error names the index of the ranking at fault.
func TestDocReaderRankings(t *testing.T) {
	for _, c := range []string{
		`null`, `[]`, `[null]`, `[[]]`, `[[[0]],null,[[5,1],[2]]]`, ` [ [ [ 3 ] , [ 1 , 2 ] ] ] `,
		`[[[0]],[[1,1]]]`, `[[[0]],5]`, `[[[0]],{}]`, `[[[0]]`, `{}`, `[[[-1]]]`, `[[[0],[]]]`,
	} {
		var want []*Ranking
		wantErr := json.Unmarshal([]byte(c), &want)
		r := NewDocReader([]byte(c))
		got, maxE, err := r.Rankings()
		if err == nil {
			err = r.End()
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Rankings(%s): err = %v, encoding/json err = %v", c, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Rankings(%s) = %v, encoding/json %v", c, got, want)
		}
		wantMax := -1
		for i, rk := range got {
			if rk == nil {
				continue
			}
			wantMax = max(wantMax, want[i].MaxElement())
			if cap(rk.Buckets) != len(rk.Buckets) {
				t.Errorf("Rankings(%s): ranking %v has room for %d buckets", c, rk, cap(rk.Buckets))
			}
		}
		if maxE != wantMax {
			t.Errorf("Rankings(%s): largest element %d, want %d", c, maxE, wantMax)
		}
	}
	_, _, err := NewDocReader([]byte(`[[[0]],[[1]],[[2,2]]]`)).Rankings()
	if err == nil || !strings.HasPrefix(err.Error(), "ranking 2: ") {
		t.Errorf("error %v, want one naming ranking 2", err)
	}
}

// TestDocReaderTopLists: an array of top-k lists reads as encoding/json
// decodes it into [][]int followed by TopListsWire.Decode's list check,
// with the same rankings, the same largest element and the same error
// text, and each list costs a fixed number of allocations however long it
// is.
func TestDocReaderTopLists(t *testing.T) {
	for _, c := range []string{
		`null`, `[]`, `[null]`, `[[]]`, `[[0]]`, ` [ [ 3 , 1 , 2 ] , [ 0 ] ] `, `[[5,null,1],[2]]`,
		`[[0],[1,1]]`, `[[0],[-1]]`, `[[0],[]]`, `[[0],null,[1]]`, `[[0],5]`, `[[0],{}]`, `[[0]`, `{}`,
		`[[1.0]]`, `[[1e2]]`, `[[-0]]`, `[[9223372036854775807]]`, `[[9223372036854775808]]`,
		`[[-9223372036854775808]]`, `[[0],[[1]]]`, `[[0],["1"]]`, `[[0,],[1]]`, `[[0] [1]]`,
	} {
		var lists [][]int
		wantErr := json.Unmarshal([]byte(c), &lists)
		for i, list := range lists {
			if wantErr != nil {
				break
			}
			// TopListsWire.Decode's check of each list.
			if len(list) == 0 {
				wantErr = emptyTopList(i)
			} else if err := FromPermutation(list).Validate(); err != nil {
				wantErr = topListError(i, err)
			}
		}
		r := NewDocReader([]byte(c))
		got, maxE, err := r.TopLists()
		if err == nil {
			err = r.End()
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("TopLists(%s): err = %v, encoding/json and the list check err = %v", c, err, wantErr)
		}
		if err != nil {
			if strings.HasPrefix(wantErr.Error(), "rankings: top-list") && err.Error() != wantErr.Error() {
				t.Errorf("TopLists(%s): err = %v, the list check err = %v", c, err, wantErr)
			}
			continue
		}
		var want []*Ranking
		if lists != nil {
			want = []*Ranking{}
		}
		wantMax := -1
		for _, list := range lists {
			want = append(want, FromPermutation(list))
			wantMax = max(wantMax, slices.Max(list))
		}
		if !reflect.DeepEqual(got, want) || maxE != wantMax {
			t.Fatalf("TopLists(%s) = %v (largest %d), want %v (largest %d)", c, got, maxE, want, wantMax)
		}
	}

	const lists, k = 64, 64
	var sb strings.Builder
	sb.WriteByte('[')
	for i := range lists {
		if i > 0 {
			sb.WriteByte(',')
		}
		b, _ := json.Marshal(rand.New(rand.NewSource(int64(i))).Perm(1000)[:k])
		sb.Write(b)
	}
	sb.WriteByte(']')
	doc := []byte(sb.String())
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := NewDocReader(doc).TopLists(); err != nil {
			t.Fatal(err)
		}
	})
	// Three hold each list and one is its check's bitmap; the reader's
	// scratch and the result slice grow by doubling.
	if allocs > 4*lists+32 {
		t.Errorf("TopLists of %d lists of %d elements: %v allocations", lists, k, allocs)
	}
}
