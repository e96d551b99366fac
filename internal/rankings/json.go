package rankings

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// MarshalJSON encodes a ranking as its bucket array, e.g. [[0],[1,2]],
// byte for byte as json.Marshal encodes r.Buckets. It writes into one
// buffer of the exact final size: a consensus over a large universe is
// encoded into every response and every stored result that carries it.
func (r *Ranking) MarshalJSON() ([]byte, error) {
	size := listLen(len(r.Buckets))
	for _, b := range r.Buckets {
		if b == nil {
			size += len("null")
			continue
		}
		size += listLen(len(b))
		for _, e := range b {
			size += decimalLen(e)
		}
	}
	return r.AppendJSON(make([]byte, 0, size)), nil
}

// AppendJSON appends the bytes MarshalJSON returns to buf: a writer of a
// document holding many rankings appends them all to one buffer.
func (r *Ranking) AppendJSON(buf []byte) []byte {
	if r.Buckets == nil {
		return append(buf, "[]"...)
	}
	buf = append(buf, '[')
	for i, b := range r.Buckets {
		if i > 0 {
			buf = append(buf, ',')
		}
		if b == nil {
			buf = append(buf, "null"...)
			continue
		}
		buf = append(buf, '[')
		for j, e := range b {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(e), 10)
		}
		buf = append(buf, ']')
	}
	return append(buf, ']')
}

// listLen is the length of a JSON array of k items apart from the items:
// its brackets and commas.
func listLen(k int) int { return 2 + max(k-1, 0) }

// decimalLen is the length of v in base 10, sign included.
func decimalLen(v int) int {
	n := 1
	if v < 0 {
		n++
	}
	for v <= -10 || v >= 10 {
		v /= 10
		n++
	}
	return n
}

// UnmarshalJSON decodes a bucket array and validates it. It accepts
// exactly what encoding/json accepts for [][]int, with the same values:
// JSON integers in int's range, whitespace between any two tokens, null
// for the whole ranking (nil buckets), for a bucket (a nil bucket, which
// validation rejects) and for an element (0, the zero value encoding/json
// leaves in place). Fractions, exponents, strings and out-of-range numbers
// are rejected.
//
// It scans the bytes once, by hand: every element goes to one backing
// array sized from the comma count and each bucket is a capacity-limited
// window of it, so a ranking of L elements costs O(L) time and a constant
// number of allocations however many buckets it has. Validate then checks
// it in O(L) as well.
func (r *Ranking) UnmarshalJSON(data []byte) error {
	dec := rankingDecoder{data: data}
	buckets, err := dec.ranking()
	if err == nil {
		err = (&Ranking{Buckets: buckets}).Validate()
	}
	if err != nil {
		return invalidRanking(err)
	}
	r.Buckets = buckets
	return nil
}

func invalidRanking(err error) error {
	return fmt.Errorf("rankings: invalid ranking in JSON: %w", err)
}

// rankingDecoder is UnmarshalJSON's scanner, and DocReader's: off is the
// next unread byte, flat the backing array every bucket is a window of and
// list the one every bucket list is a window of.
type rankingDecoder struct {
	data []byte
	off  int
	flat []int
	list [][]int
}

// ranking decodes the whole input: one null or bucket array, with nothing
// but whitespace around it.
func (d *rankingDecoder) ranking() ([][]int, error) {
	switch d.skipSpace() {
	case 'n':
		if err := d.null(); err != nil {
			return nil, err
		}
		return nil, d.end("after the bucket array")
	case '[':
	default:
		return nil, d.syntaxError("looking for a bucket array")
	}
	d.flat = make([]int, 0, bytes.Count(d.data, []byte{','})+1)
	d.list = make([][]int, 0, bytes.Count(d.data, []byte{'['})-1)
	buckets, err := d.buckets()
	if err != nil {
		return nil, err
	}
	return buckets, d.end("after the bucket array")
}

// buckets decodes the bucket array at the cursor, which is its opening
// bracket. Each bucket is appended to list, and the ranking's buckets are
// the part of list it appended.
func (d *rankingDecoder) buckets() ([][]int, error) {
	d.off++
	list, start := d.list, len(d.list)
	if d.skipSpace() == ']' {
		d.off++
		return list[start:], nil
	}
	for {
		var b []int
		switch d.skipSpace() {
		case 'n':
			if err := d.null(); err != nil {
				return nil, err
			}
		case '[':
			d.off++
			var err error
			if b, err = d.bucket(); err != nil {
				return nil, err
			}
		default:
			return nil, d.syntaxError("looking for a bucket")
		}
		list = append(list, b)
		switch d.skipSpace() {
		case ',':
			d.off++
		case ']':
			d.off++
			d.list = list
			return list[start:], nil
		default:
			return nil, d.syntaxError("after a bucket")
		}
	}
}

// bucket decodes a bucket's elements, after its opening bracket, and
// returns them as a capacity-limited window of the backing array: no
// append to one bucket can reach into the next.
func (d *rankingDecoder) bucket() ([]int, error) {
	start := len(d.flat)
	if d.skipSpace() == ']' {
		d.off++
		return d.flat[start:start:start], nil
	}
	for {
		var e int
		switch c := d.skipSpace(); {
		case c == 'n':
			if err := d.null(); err != nil {
				return nil, err
			}
		case c == '-' || '0' <= c && c <= '9':
			var err error
			if e, err = d.integer(); err != nil {
				return nil, err
			}
		default:
			return nil, d.syntaxError("looking for an element")
		}
		d.flat = append(d.flat, e)
		switch d.skipSpace() {
		case ',':
			d.off++
		case ']':
			d.off++
			end := len(d.flat)
			return d.flat[start:end:end], nil
		default:
			return nil, d.syntaxError("after an element")
		}
	}
}

// integer decodes a JSON number that must be an integer in int's range:
// -?(0|[1-9][0-9]*), not followed by a fraction or an exponent.
func (d *rankingDecoder) integer() (int, error) {
	data, start := d.data, d.off
	neg := data[start] == '-'
	first := start
	if neg {
		first++
	}
	i := first
	var u uint64 // cannot wrap within the 19 digits accepted below
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		u = u*10 + uint64(data[i]-'0')
	}
	d.off = i
	digits := i - first
	switch {
	case digits == 0:
		return 0, d.syntaxError("in a number")
	case digits > 1 && data[first] == '0':
		d.off = first + 1
		return 0, d.syntaxError("after a leading zero")
	case i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E'):
		return 0, fmt.Errorf("number at offset %d is not an integer", start)
	}
	// A negative number's magnitude may reach -math.MinInt, which int(u)
	// wraps to math.MinInt and the negation leaves there.
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	if digits > 19 || u > limit {
		return 0, fmt.Errorf("number at offset %d is out of range", start)
	}
	v := int(u)
	if neg {
		v = -v
	}
	return v, nil
}

// null consumes the literal null.
func (d *rankingDecoder) null() error { return d.literal("null") }

// literal consumes the literal lit.
func (d *rankingDecoder) literal(lit string) error {
	if !bytes.HasPrefix(d.data[d.off:], []byte(lit)) {
		return d.syntaxError("in a literal")
	}
	d.off += len(lit)
	return nil
}

// skipSpace advances past JSON whitespace and returns the next byte, or 0
// at the end of the input (which no caller mistakes for a NUL byte: 0 is
// not a token).
func (d *rankingDecoder) skipSpace() byte {
	for i, c := range d.data[d.off:] {
		switch c {
		case ' ', '\t', '\n', '\r':
		default:
			d.off += i
			return c
		}
	}
	d.off = len(d.data)
	return 0
}

// end checks that only whitespace follows the decoded value.
func (d *rankingDecoder) end(where string) error {
	if d.skipSpace(); d.off < len(d.data) {
		return d.syntaxError(where)
	}
	return nil
}

func (d *rankingDecoder) syntaxError(where string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("unexpected end of input %s", where)
	}
	return fmt.Errorf("unexpected %q at offset %d %s", d.data[d.off], d.off, where)
}

// ErrNoRankings is returned by DatasetWire.Decode for payloads carrying no
// rankings at all: there is nothing to aggregate, and no universe size can
// be inferred.
var ErrNoRankings = errors.New("rankings: no rankings in payload")

// DatasetWire is the wire form of a dataset in API request documents that
// embed one (the serving layer's POST /v1/aggregate body). N may be
// omitted on input: Decode then infers the universe size from the largest
// element ID (and the name count, when names are given).
type DatasetWire struct {
	N        int        `json:"n,omitempty"`
	Names    []string   `json:"names,omitempty"`
	Rankings []*Ranking `json:"rankings"`
}

// Decode validates the wire form and returns the dataset, plus the universe
// when the payload carried element names (nil otherwise).
func (w *DatasetWire) Decode() (*Dataset, *Universe, error) {
	return WireDataset(w.N, w.Names, w.Rankings, inferMax(w.N, w.Rankings), false, false)
}

// inferMax is what WireDataset needs of rankings it is to check itself:
// for a universe size n of 0, which it infers, the largest element of the
// non-null rankings below math.MaxInt (whose successor does not fit an
// int), -1 if there is none; for any other n, nothing, so -1 without
// reading them.
func inferMax(n int, rks []*Ranking) int {
	maxE := -1
	if n != 0 {
		return maxE
	}
	for _, r := range rks {
		if r == nil {
			continue // rejected by WireDataset
		}
		if m := r.MaxElement(); m < math.MaxInt {
			maxE = max(maxE, m)
		}
	}
	return maxE
}

// WireDataset is the last step of reading a dataset from any of its wire
// forms (DatasetWire.Decode, TopListsWire.Decode, and a one-pass reader of
// either), once the rankings are in hand:
//   - a dataset of no rankings is ErrNoRankings;
//   - an n of 0 is inferred: one more than the largest element maxE, or the
//     name count if that is larger;
//   - no ranking may be null or name an element outside [0, n);
//   - names, when given, must be n distinct strings; they become the
//     returned universe, which is nil without names.
//
// checked reports that every ranking has passed Ranking.Validate and that
// maxE is the largest element among them, as the ranking scanner and
// DocReader.TopLists guarantee: the rankings are then not read again
// unless one is at fault, and Dataset.Validate runs only to name it.
// Otherwise Dataset.Validate checks every ranking, and maxE only sizes the
// universe. topLists words the duplicate-names error as TopListsWire.Decode
// does.
func WireDataset(n int, names []string, rks []*Ranking, maxE int, checked, topLists bool) (*Dataset, *Universe, error) {
	if len(rks) == 0 {
		return nil, nil, ErrNoRankings
	}
	if n == 0 {
		n = len(names)
		if maxE < math.MaxInt {
			n = max(n, maxE+1)
		}
	}
	d := &Dataset{N: n, Rankings: rks}
	if !checked || n < 0 || maxE >= n || slices.Contains(rks, nil) {
		if err := d.Validate(); err != nil {
			return nil, nil, err
		}
	}
	if len(names) == 0 {
		return d, nil, nil
	}
	if len(names) != n {
		return nil, nil, fmt.Errorf("rankings: %d names for %d elements", len(names), n)
	}
	u := NewUniverse()
	for _, nm := range names {
		u.ID(nm)
	}
	if u.Size() != n {
		if topLists {
			return nil, nil, fmt.Errorf("rankings: duplicate names in top-lists payload")
		}
		return nil, nil, fmt.Errorf("rankings: duplicate names in JSON dataset")
	}
	return d, u, nil
}

// BucketNames renders a ranking as nested name lists for JSON responses:
// one string slice per bucket, elements named from u (numeric fallbacks
// for IDs outside the universe, nil u names every element numerically).
func BucketNames(r *Ranking, u *Universe) [][]string {
	out := make([][]string, len(r.Buckets))
	for i, b := range r.Buckets {
		names := make([]string, len(b))
		for j, e := range b {
			if u != nil {
				names[j] = u.Name(e)
			} else {
				names[j] = fmt.Sprintf("#%d", e)
			}
		}
		out[i] = names
	}
	return out
}
