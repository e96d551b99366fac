package rankings

import (
	"fmt"
	"sort"
)

// Dataset is a set of input rankings, the object every aggregation algorithm
// consumes ("a dataset systematically denotes a set of input rankings R" in
// the paper). N is the size of the element universe: element IDs are in
// [0, N). Individual rankings may cover only a subset of the universe until a
// normalization process (package normalize) is applied.
type Dataset struct {
	N        int
	Rankings []*Ranking
}

// NewDataset builds a dataset over a universe of n elements.
func NewDataset(n int, rks ...*Ranking) *Dataset {
	return &Dataset{N: n, Rankings: rks}
}

// FromRankings builds a dataset whose universe is exactly large enough to
// hold every element mentioned by the given rankings.
func FromRankings(rks ...*Ranking) *Dataset {
	n := 0
	for _, r := range rks {
		if m := r.MaxElement() + 1; m > n {
			n = m
		}
	}
	return &Dataset{N: n, Rankings: rks}
}

// M returns the number of rankings in the dataset.
func (d *Dataset) M() int { return len(d.Rankings) }

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	rks := make([]*Ranking, len(d.Rankings))
	for i, r := range d.Rankings {
		rks[i] = r.Clone()
	}
	return &Dataset{N: d.N, Rankings: rks}
}

// Validate checks every ranking and that all element IDs fit the universe.
// A nil ranking — what a JSON null in a ranking list decodes to — is
// rejected by index.
func (d *Dataset) Validate() error {
	if d.N < 0 {
		return fmt.Errorf("rankings: negative universe size %d", d.N)
	}
	for i, r := range d.Rankings {
		if r == nil {
			return fmt.Errorf("rankings: ranking %d is null", i)
		}
		if err := r.Validate(); err != nil {
			return fmt.Errorf("ranking %d: %w", i, err)
		}
		if m := r.MaxElement(); m >= d.N {
			return fmt.Errorf("ranking %d: element %d outside universe [0,%d)", i, m, d.N)
		}
	}
	return nil
}

// Complete reports whether every ranking covers the whole universe, i.e. the
// dataset is normalized ("over the same elements"). Most algorithms require
// this.
func (d *Dataset) Complete() bool {
	for _, r := range d.Rankings {
		if r.Len() != d.N {
			return false
		}
	}
	return true
}

// PositionMatrix returns, for each ranking, its Positions slice (1-based
// bucket index per element, 0 = absent). The result is indexed
// [ranking][element].
func (d *Dataset) PositionMatrix() [][]int {
	out := make([][]int, len(d.Rankings))
	for i, r := range d.Rankings {
		out[i] = r.Positions(d.N)
	}
	return out
}

// ElementsInAll returns the IDs present in every ranking, ascending.
func (d *Dataset) ElementsInAll() []int {
	if len(d.Rankings) == 0 {
		return nil
	}
	count := make([]int, d.N)
	for _, r := range d.Rankings {
		for _, b := range r.Buckets {
			for _, e := range b {
				count[e]++
			}
		}
	}
	var out []int
	for e, c := range count {
		if c == len(d.Rankings) {
			out = append(out, e)
		}
	}
	return out
}

// ElementsInAny returns the IDs present in at least one ranking, ascending.
func (d *Dataset) ElementsInAny() []int {
	present := make([]bool, d.N)
	for _, r := range d.Rankings {
		for _, b := range r.Buckets {
			for _, e := range b {
				present[e] = true
			}
		}
	}
	var out []int
	for e, p := range present {
		if p {
			out = append(out, e)
		}
	}
	return out
}

// Universe maintains a bidirectional mapping between external element names
// and dense integer IDs. It is the boundary type used by parsers and CLIs;
// the algorithms themselves only see IDs.
type Universe struct {
	ids   map[string]int
	names []string
}

// NewUniverse returns an empty universe.
func NewUniverse() *Universe {
	return &Universe{ids: make(map[string]int)}
}

// ID returns the ID for name, allocating a new one on first sight.
func (u *Universe) ID(name string) int {
	if id, ok := u.ids[name]; ok {
		return id
	}
	id := len(u.names)
	u.ids[name] = id
	u.names = append(u.names, name)
	return id
}

// Lookup returns the ID for name and whether it is known.
func (u *Universe) Lookup(name string) (int, bool) {
	id, ok := u.ids[name]
	return id, ok
}

// Name returns the name for an ID, or a numeric fallback for unknown IDs.
func (u *Universe) Name(id int) string {
	if id >= 0 && id < len(u.names) {
		return u.names[id]
	}
	return fmt.Sprintf("#%d", id)
}

// Size returns the number of named elements.
func (u *Universe) Size() int { return len(u.names) }

// Names returns a copy of all names, indexed by ID.
func (u *Universe) Names() []string { return append([]string(nil), u.names...) }

// Format renders a ranking with element names from the universe, e.g.
// [{A},{B,C}]. Buckets are rendered with names sorted for determinism.
func (u *Universe) Format(r *Ranking) string {
	out := "["
	for i, b := range r.Buckets {
		if i > 0 {
			out += ","
		}
		names := make([]string, len(b))
		for j, e := range b {
			names[j] = u.Name(e)
		}
		sort.Strings(names)
		out += "{"
		for j, nm := range names {
			if j > 0 {
				out += ","
			}
			out += nm
		}
		out += "}"
	}
	return out + "]"
}
