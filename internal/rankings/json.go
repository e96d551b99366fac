package rankings

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
)

// MarshalJSON encodes a ranking as its bucket array, e.g. [[0],[1,2]],
// byte for byte as json.Marshal encodes r.Buckets. It writes into one
// buffer of the exact final size: a consensus over a large universe is
// encoded into every response and every stored result that carries it.
func (r *Ranking) MarshalJSON() ([]byte, error) {
	if r.Buckets == nil {
		return []byte("[]"), nil
	}
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
	buf := make([]byte, 0, size)
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
	return append(buf, ']'), nil
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

// UnmarshalJSON decodes a bucket array and validates it.
func (r *Ranking) UnmarshalJSON(data []byte) error {
	var buckets [][]int
	if err := json.Unmarshal(data, &buckets); err != nil {
		return err
	}
	tmp := Ranking{Buckets: buckets}
	if err := tmp.Validate(); err != nil {
		return fmt.Errorf("rankings: invalid ranking in JSON: %w", err)
	}
	r.Buckets = buckets
	return nil
}

// ErrNoRankings is returned by DatasetWire.Decode for payloads carrying no
// rankings at all: there is nothing to aggregate, and no universe size can
// be inferred.
var ErrNoRankings = errors.New("rankings: no rankings in payload")

// DatasetWire is the wire form of a dataset, shared by the dataset files
// written by MarshalDatasetJSON and by API request documents that embed a
// dataset (the serving layer's POST /v1/aggregate body). N may be omitted
// on input: Decode then infers the universe size from the largest element
// ID (and the name count, when names are given).
type DatasetWire struct {
	N        int        `json:"n,omitempty"`
	Names    []string   `json:"names,omitempty"`
	Rankings []*Ranking `json:"rankings"`
}

// Decode validates the wire form and returns the dataset, plus the universe
// when the payload carried element names (nil otherwise).
func (w *DatasetWire) Decode() (*Dataset, *Universe, error) {
	if len(w.Rankings) == 0 {
		return nil, nil, ErrNoRankings
	}
	n := w.N
	if n == 0 {
		for _, r := range w.Rankings {
			if m := r.MaxElement() + 1; m > n {
				n = m
			}
		}
		if len(w.Names) > n {
			n = len(w.Names)
		}
	}
	d := &Dataset{N: n, Rankings: w.Rankings}
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	var u *Universe
	if len(w.Names) > 0 {
		if len(w.Names) != n {
			return nil, nil, fmt.Errorf("rankings: %d names for %d elements", len(w.Names), n)
		}
		u = NewUniverse()
		for _, nm := range w.Names {
			u.ID(nm)
		}
		if u.Size() != n {
			return nil, nil, fmt.Errorf("rankings: duplicate names in JSON dataset")
		}
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

// MarshalDatasetJSON encodes a dataset (and its universe's names, when
// non-nil) as JSON.
func MarshalDatasetJSON(d *Dataset, u *Universe) ([]byte, error) {
	out := DatasetWire{N: d.N, Rankings: d.Rankings}
	if u != nil {
		out.Names = u.Names()
	}
	return json.MarshalIndent(out, "", "  ")
}

// UnmarshalDatasetJSON decodes a dataset file; the returned universe is nil
// when the payload carried no names. Unlike DatasetWire.Decode it accepts
// an empty ranking list (an empty dataset file is valid), but it requires
// an explicit universe size for any named payload.
func UnmarshalDatasetJSON(data []byte) (*Dataset, *Universe, error) {
	var in DatasetWire
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, nil, err
	}
	d := &Dataset{N: in.N, Rankings: in.Rankings}
	if d.Rankings == nil {
		d.Rankings = []*Ranking{}
	}
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	var u *Universe
	if len(in.Names) > 0 {
		if len(in.Names) != in.N {
			return nil, nil, fmt.Errorf("rankings: %d names for %d elements", len(in.Names), in.N)
		}
		u = NewUniverse()
		for _, nm := range in.Names {
			u.ID(nm)
		}
		if u.Size() != in.N {
			return nil, nil, fmt.Errorf("rankings: duplicate names in JSON dataset")
		}
	}
	return d, u, nil
}
