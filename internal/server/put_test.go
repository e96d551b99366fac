package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rankagg/internal/gen"
	"rankagg/internal/rankings"
)

// oraclePut is how PUT /v1/datasets read its body before readPutBody: a
// json.Decoder into DatasetPutRequest (an empty body is the zero request),
// then decodeDataset. It is the oracle the one-pass reader is checked
// against.
func oraclePut(body []byte) (*rankings.Dataset, []string, error) {
	var wire DatasetPutRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wire); err != nil && !errors.Is(err, io.EOF) {
		return nil, nil, err
	}
	d, _, err := decodeDataset(wire.DatasetWire, wire.TopLists)
	return d, wire.Names, err
}

// allocated is the number of bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkPutBody: readPutBody accepts exactly the bodies the oracle accepts,
// with the same universe size, names and rankings and so the same dataset
// hash, and allocates no more than a small multiple of the body, whatever
// universe it declares.
func checkPutBody(t *testing.T, body []byte) {
	t.Helper()
	var (
		d      *rankings.Dataset
		names  []string
		gotErr error
	)
	if a := allocated(func() { d, names, gotErr = readPutBody(body) }); a > 64*uint64(len(body))+64<<10 {
		t.Fatalf("readPutBody(%q) allocated %d bytes", body, a)
	}
	want, wantNames, wantErr := oraclePut(body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("readPutBody(%q): err = %v, oracle err = %v", body, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if d.N != want.N || !reflect.DeepEqual(names, wantNames) || !reflect.DeepEqual(d.Rankings, want.Rankings) {
		t.Fatalf("readPutBody(%q) = n %d, names %q, rankings %v; oracle n %d, names %q, rankings %v",
			body, d.N, names, d.Rankings, want.N, wantNames, want.Rankings)
	}
	if d.Hash() != want.Hash() {
		t.Fatalf("readPutBody(%q): hash %s, oracle %s", body, d.Hash(), want.Hash())
	}
}

// putShapes returns PUT bodies of both benchmark workloads' shapes, small:
// top-k lists over a larger universe, and complete Markov rankings with
// ties, each with and without names.
func putShapes() [][]byte {
	rng := rand.New(rand.NewSource(1))
	const n = 40
	lists := make([][]int, 6)
	for i := range lists {
		lists[i] = rng.Perm(n)[:1+rng.Intn(8)]
	}
	d := gen.MarkovDataset(rng, rankings.FromPermutation(rng.Perm(12)), 12, 5, 10)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("item %d", i)
	}
	var out [][]byte
	for _, req := range []DatasetPutRequest{
		{DatasetWire: rankings.DatasetWire{N: n}, TopLists: lists},
		{DatasetWire: rankings.DatasetWire{N: n, Names: names}, TopLists: lists},
		{DatasetWire: rankings.DatasetWire{N: d.N, Rankings: d.Rankings}},
		{DatasetWire: rankings.DatasetWire{Names: names[:d.N], Rankings: d.Rankings}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		out = append(out, body)
	}
	return out
}

// putQuirks are the bodies that pin the json.Decoder quirks the reader
// keeps, and the ways a body is refused.
var putQuirks = []string{
	// Only the first value is read; an empty body is the zero request.
	`{"toplists":[[0,1]]} x`,
	`{"toplists":[[0,1]]}{"rankings":5}`,
	``, " \t\r\n", `null`, `[]`, `5`, `"x"`, `{`, "\v",
	// Keys match exactly, else case-folded (ASCII and Unicode); a
	// repeated key is read again.
	`{"N":3,"TopLists":[[0,1]],"NAMES":["a","b","c"]}`,
	"{\"n\":3,\"toplistſ\":[[2,1]]}",
	`{"n":3,"n":4,"toplists":[[0]],"names":["a","b","c","d"]}`,
	`{"names":["a","b","c"],"names":[null,"z"],"toplists":[[0,1]]}`,
	`{"rankings":[[[0],[1]]],"rankings":[[[1,0]],[[0],[1]]]}`,
	`{"toplists":[[0,1,2]],"toplists":[[3]]}`,
	`{"toplists":[[5,6,7],[1]],"toplists":[[8,null,null,9]]}`,
	`{"toplists":[[4,5]],"toplists":[[null]],"toplists":[[null,null,null]]}`,
	`{"toplists":[[0,1]],"toplists":null,"toplists":[[null,2]]}`,
	`{"toplists":[[0,0]],"toplists":[[0,1]]}`,
	`{"toplists":[[]],"toplists":[[1]]}`,
	`{"toplists":[[1]],"toplists":[[]]}`,
	// Both wires, either one empty, and both.
	`{"rankings":[[[0],[1]]],"toplists":[[0,1]]}`,
	`{"rankings":[],"toplists":[[0,1]]}`,
	`{"rankings":[[[0],[1]]],"toplists":[]}`,
	`{"rankings":null,"toplists":null}`,
	`{"rankings":[[[0],[1]]],"toplists":[[0,0]]}`,
	// Lists and elements: null, empty, null inside, repeats, negatives.
	`{"toplists":null}`,
	`{"toplists":[]}`,
	`{"toplists":[null]}`,
	`{"toplists":[[0],null]}`,
	`{"toplists":[[]]}`,
	`{"toplists":[[null,1]]}`,
	`{"toplists":[[1,null]]}`,
	`{"toplists":[[1,2,1]]}`,
	`{"toplists":[[1,-2]]}`,
	`{"rankings":[null]}`,
	`{"rankings":[[[0],[-1]]]}`,
	`{"rankings":[[[0],[0]]]}`,
	`{"rankings":[[[0],null]]}`,
	// Numbers: fractions, exponents, negative zero, out of range.
	`{"n":1.0,"toplists":[[0]]}`,
	`{"n":1e2,"toplists":[[0]]}`,
	`{"toplists":[[1.0]]}`,
	`{"toplists":[[1e2]]}`,
	`{"n":-0,"toplists":[[-0,1]]}`,
	`{"toplists":[[9223372036854775807]]}`,
	`{"toplists":[[9223372036854775808]]}`,
	`{"toplists":[[5],[9223372036854775807]]}`,
	`{"n":9223372036854775808,"toplists":[[0]]}`,
	`{"n":-1,"toplists":[[0]]}`,
	`{"n":2,"toplists":[[2]]}`,
	`{"n":"2","toplists":[[0]]}`,
	`{"toplists":[["0"]]}`,
	`{"toplists":{}}`,
	`{"toplists":[[[0]]]}`,
	// Names: counts, duplicates, invalid UTF-8 and escapes.
	`{"names":["a","b"],"toplists":[[0]]}`,
	`{"names":["a","a"],"toplists":[[0,1]]}`,
	`{"names":["a","a"],"rankings":[[[0,1]]]}`,
	`{"names":["a"],"toplists":[[0,1]]}`,
	"{\"names\":[\"\xff\",\"\xfe\"],\"toplists\":[[0,1]]}",
	`{"names":["\ud800","\udc00"],"toplists":[[0,1]]}`,
	`{"names":["A","A"],"toplists":[[0,1]]}`,
	`{"names":[1,"b"],"toplists":[[0,1]]}`,
	`{"names":[],"toplists":[[0,1]]}`,
	// Unknown members, deep nesting inside one, and the nesting limit.
	`{"spec":{"algorithm":"x"},"extra":[1,{"a":[true,false,null,"\"\\\/\b\f\n\r\t"]}],"toplists":[[0]]}`,
	`{"x":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `,"toplists":[[0]]}`,
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,"toplists":[[0]]}`,
	`{"x":[1,2,}`,
}

func FuzzDatasetPutBody(f *testing.F) {
	for _, body := range putShapes() {
		f.Add(body)
	}
	for _, q := range putQuirks {
		f.Add([]byte(q))
	}
	f.Fuzz(checkPutBody)
}

// TestDatasetPutBodyMatchesOracle runs the check over the fuzz seeds and
// over both shapes mutated one byte at a time, so accepted and refused
// bodies both get coverage without the fuzzing engine.
func TestDatasetPutBodyMatchesOracle(t *testing.T) {
	for _, q := range putQuirks {
		checkPutBody(t, []byte(q))
	}
	rng := rand.New(rand.NewSource(7))
	alphabet := []byte(`[]{},:"-0123456789 .eEnultrsfaxNRK\`)
	for _, body := range putShapes() {
		checkPutBody(t, body)
		for range 300 {
			mut := slices.Clone(body)
			for range 1 + rng.Intn(2) {
				mut[rng.Intn(len(mut))] = alphabet[rng.Intn(len(alphabet))]
			}
			checkPutBody(t, mut)
		}
	}
}

// TestPutBodyHugeUniverse: a body of a few dozen bytes that declares a
// huge universe reads without allocating anything of its size.
func TestPutBodyHugeUniverse(t *testing.T) {
	for _, body := range []string{
		`{"n":1099511627776,"toplists":[[0]]}`,
		`{"n":1099511627776,"rankings":[[[0],[1]]]}`,
		`{"toplists":[[1099511627775]]}`,
	} {
		var d *rankings.Dataset
		var err error
		if a := allocated(func() { d, _, err = readPutBody([]byte(body)) }); a > 8<<10 {
			t.Errorf("readPutBody(%s) allocated %d bytes", body, a)
		}
		if err != nil || d.N != 1<<40 {
			t.Errorf("readPutBody(%s) = %v, %v; want a dataset of 2^40 elements", body, d, err)
		}
	}
}
