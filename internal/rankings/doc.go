package rankings

import (
	"encoding/json"
	"fmt"
	"unicode/utf8"
)

// DocReader reads one JSON document front to back, in a single pass, into
// the values encoding/json would decode it into, and hands every ranking
// it meets straight to Ranking.UnmarshalJSON's scanner. encoding/json
// reads a ranking's bytes twice before it calls that scanner: once to
// validate the whole document and once to find where the ranking ends.
//
// The caller describes the document's shape by calling the reader's
// methods in the order its values come: Object walks an object's members,
// Rankings and Ranking decode rankings, Decode hands any other value to
// encoding/json, and Skip passes over a value the caller has no use for.
// Together they accept exactly the JSON encoding/json accepts: its
// grammar, its string escapes and its nesting limit.
type DocReader struct {
	d     rankingDecoder
	depth int // containers open around the cursor
}

// maxDepth is encoding/json's nesting limit: a document that opens more
// arrays and objects than this inside one another is rejected.
const maxDepth = 10000

// NewDocReader returns a reader positioned at the start of data.
func NewDocReader(data []byte) *DocReader {
	return &DocReader{d: rankingDecoder{data: data}}
}

// End checks that only whitespace follows the document's value.
func (r *DocReader) End() error { return r.d.end("after the top-level value") }

// Object reads the object at the cursor, or null, as encoding/json reads
// one into a struct or a map. For each member, in document order, member
// is called with the key, unescaped as encoding/json unescapes it, and
// the cursor at the member's value, which member must read. A repeated key
// reaches member once per occurrence. Matching keys to fields is member's
// part: encoding/json takes the field whose name equals the key, else the
// first one equal to it under strings.EqualFold, and a map keeps every key
// as written. Object reports whether the value was null; any value other
// than an object or null is an error.
func (r *DocReader) Object(member func(key string) error) (null bool, err error) {
	d := &r.d
	switch d.skipSpace() {
	case 'n':
		return true, d.null()
	case '{':
	default:
		return false, d.syntaxError("looking for an object")
	}
	if err := r.open(); err != nil {
		return false, err
	}
	if d.skipSpace() == '}' {
		d.off++
		r.depth--
		return false, nil
	}
	for {
		if d.skipSpace() != '"' {
			return false, d.syntaxError("looking for an object key")
		}
		key, err := d.key()
		if err != nil {
			return false, err
		}
		if d.skipSpace() != ':' {
			return false, d.syntaxError("after an object key")
		}
		d.off++
		if err := member(key); err != nil {
			return false, err
		}
		switch d.skipSpace() {
		case ',':
			d.off++
		case '}':
			d.off++
			r.depth--
			return false, nil
		default:
			return false, d.syntaxError("after an object member")
		}
	}
}

// Rankings reads an array of rankings at the cursor, or null, as
// encoding/json reads one into []*Ranking: null gives a nil slice, []
// an empty one, and a null element a nil ranking. Every ranking is
// decoded and validated as the Ranking method does it. maxE is the
// largest element of any of them (-1 if none), so the caller can check
// them against a universe without reading them again. An error names the
// index of the ranking it is about.
func (r *DocReader) Rankings() (rks []*Ranking, maxE int, err error) {
	d := &r.d
	switch d.skipSpace() {
	case 'n':
		return nil, -1, d.null()
	case '[':
	default:
		return nil, -1, d.syntaxError("looking for an array of rankings")
	}
	if err := r.open(); err != nil {
		return nil, -1, err
	}
	rks, maxE = []*Ranking{}, -1
	if d.skipSpace() == ']' {
		d.off++
		r.depth--
		return rks, maxE, nil
	}
	for {
		rk, m, err := r.Ranking()
		if err != nil {
			return nil, -1, fmt.Errorf("ranking %d: %w", len(rks), err)
		}
		rks = append(rks, rk)
		maxE = max(maxE, m)
		switch d.skipSpace() {
		case ',':
			d.off++
		case ']':
			d.off++
			r.depth--
			return rks, maxE, nil
		default:
			return nil, -1, d.syntaxError("after a ranking")
		}
	}
}

// Ranking reads the ranking at the cursor as Ranking.UnmarshalJSON reads
// one, validation included, or null, which gives a nil ranking (for null,
// encoding/json sets a *Ranking to nil and never calls UnmarshalJSON). It
// returns the ranking's largest element, -1 for null or an empty ranking.
//
// The reader's scratch arrays are sized by the largest ranking so far, not
// by a count over the rest of the document; each ranking is then copied
// into arrays of its own exact size, so it keeps nothing else alive.
func (r *DocReader) Ranking() (rk *Ranking, maxE int, err error) {
	d := &r.d
	switch d.skipSpace() {
	case 'n':
		return nil, -1, d.null()
	case '[':
	default:
		return nil, -1, invalidRanking(d.syntaxError("looking for a bucket array"))
	}
	d.flat, d.list = d.flat[:0], d.list[:0]
	scratch, err := d.buckets()
	switch {
	case err != nil:
	case r.depth >= maxDepth, r.depth+1 >= maxDepth && len(scratch) > 0:
		// The bucket array, and each bucket in it, opens a level.
		err = fmt.Errorf("ranking beyond the maximum nesting depth")
	default:
		maxE, err = validate(scratch)
	}
	if err != nil {
		return nil, -1, invalidRanking(err)
	}
	// Buckets lie in flat in order, so each one's offset is the sum of
	// the lengths before it; a window that outlived a growth of flat still
	// has the right length.
	flat := append([]int(nil), d.flat...)
	buckets := make([][]int, len(scratch))
	off := 0
	for i, b := range scratch {
		end := off + len(b)
		buckets[i] = flat[off:end:end]
		off = end
	}
	return &Ranking{Buckets: buckets}, maxE, nil
}

// TopLists reads an array of top-k lists at the cursor, or null, as the
// "toplists" wire carries them (TopListsWire): each list holds element
// IDs, best first. It returns what TopListsWire.Decode makes of the lists
// encoding/json would decode, before the universe rules WireDataset
// applies: null gives a nil slice, [] an empty one, a null element reads
// as 0, and each list becomes a ranking of one-element buckets. A list's
// elements are copied into one array of their own and each bucket is a
// window of it, so a list is held in three allocations however long it
// is, where FromPermutation makes one per element.
// Each list is checked once, as it is read: it must hold an element, and
// no negative or repeated one; maxE is the largest element of any list
// (-1 if none). An error names the index of the list it is about, in
// TopListsWire.Decode's words.
func (r *DocReader) TopLists() (rks []*Ranking, maxE int, err error) {
	d := &r.d
	switch d.skipSpace() {
	case 'n':
		return nil, -1, d.null()
	case '[':
	default:
		return nil, -1, d.syntaxError("looking for an array of top-k lists")
	}
	if err := r.open(); err != nil {
		return nil, -1, err
	}
	rks, maxE = []*Ranking{}, -1
	if d.skipSpace() == ']' {
		d.off++
		r.depth--
		return rks, maxE, nil
	}
	for {
		rk, m, err := r.topList(len(rks))
		if err != nil {
			return nil, -1, err
		}
		rks = append(rks, rk)
		maxE = max(maxE, m)
		switch d.skipSpace() {
		case ',':
			d.off++
		case ']':
			d.off++
			r.depth--
			return rks, maxE, nil
		default:
			return nil, -1, d.syntaxError("after a top-k list")
		}
	}
}

// topList reads and checks the i-th top-k list at the cursor.
func (r *DocReader) topList(i int) (*Ranking, int, error) {
	d := &r.d
	switch d.skipSpace() {
	case 'n':
		// encoding/json reads null as a nil list, which is empty.
		if err := d.null(); err != nil {
			return nil, -1, topListError(i, err)
		}
		return nil, -1, emptyTopList(i)
	case '[':
	default:
		return nil, -1, topListError(i, d.syntaxError("looking for a top-k list"))
	}
	if err := r.open(); err != nil {
		return nil, -1, topListError(i, err)
	}
	d.flat = d.flat[:0]
	scratch, err := d.bucket()
	if err != nil {
		return nil, -1, topListError(i, err)
	}
	r.depth--
	if len(scratch) == 0 {
		return nil, -1, emptyTopList(i)
	}
	flat := append([]int(nil), scratch...)
	buckets := make([][]int, len(flat))
	for k := range flat {
		buckets[k] = flat[k : k+1 : k+1]
	}
	maxE, err := validate(buckets)
	if err != nil {
		return nil, -1, topListError(i, err)
	}
	return &Ranking{Buckets: buckets}, maxE, nil
}

// Decode reads the value at the cursor into v with encoding/json, which
// sees only that value's bytes: the reader checks them first, so
// encoding/json can fail only on a value v cannot hold.
func (r *DocReader) Decode(v any) error {
	r.d.skipSpace()
	start := r.d.off
	if err := r.Skip(); err != nil {
		return err
	}
	return json.Unmarshal(r.d.data[start:r.d.off], v)
}

// Skip reads past the value at the cursor, checking that it is well formed.
func (r *DocReader) Skip() error { return r.skip(r.depth) }

// open enters the array or object at the cursor.
func (r *DocReader) open() error {
	if r.depth >= maxDepth {
		return r.d.syntaxError("beyond the maximum nesting depth")
	}
	r.depth++
	r.d.off++
	return nil
}

// skip reads past one value inside depth open containers.
func (r *DocReader) skip(depth int) error {
	d := &r.d
	switch c := d.skipSpace(); {
	case c == '{' || c == '[':
		if depth >= maxDepth {
			return d.syntaxError("beyond the maximum nesting depth")
		}
		closing := byte(']')
		if c == '{' {
			closing = '}'
		}
		d.off++
		if d.skipSpace() == closing {
			d.off++
			return nil
		}
		for {
			if c == '{' {
				if d.skipSpace() != '"' {
					return d.syntaxError("looking for an object key")
				}
				if _, err := d.str(); err != nil {
					return err
				}
				if d.skipSpace() != ':' {
					return d.syntaxError("after an object key")
				}
				d.off++
			}
			if err := r.skip(depth + 1); err != nil {
				return err
			}
			switch d.skipSpace() {
			case ',':
				d.off++
			case closing:
				d.off++
				return nil
			default:
				return d.syntaxError("after a value")
			}
		}
	case c == '"':
		_, err := d.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.null()
	default:
		return d.syntaxError("looking for a value")
	}
}

// key reads the object key at the cursor, its opening quote, and unescapes
// it. A key with no escapes and valid UTF-8 is its own bytes; any other
// goes through encoding/json, which also turns invalid UTF-8 into U+FFFD.
func (d *rankingDecoder) key() (string, error) {
	start := d.off
	escaped, err := d.str()
	if err != nil {
		return "", err
	}
	if raw := d.data[start+1 : d.off-1]; !escaped && utf8.Valid(raw) {
		return string(raw), nil
	}
	var key string
	err = json.Unmarshal(d.data[start:d.off], &key)
	return key, err
}

// str reads past the string at the cursor, its opening quote, checking its
// escapes, and reports whether it holds any. Like encoding/json it takes
// any byte from 0x20 up, valid UTF-8 or not, and no control character.
func (d *rankingDecoder) str() (escaped bool, err error) {
	data := d.data
	for i := d.off + 1; i < len(data); {
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			return escaped, nil
		case c == '\\':
			escaped = true
			if i+1 < len(data) {
				switch data[i+1] {
				case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
					i += 2
					continue
				case 'u':
					if i+6 <= len(data) && isHex(data[i+2]) && isHex(data[i+3]) && isHex(data[i+4]) && isHex(data[i+5]) {
						i += 6
						continue
					}
				}
			}
			d.off = i
			return false, d.syntaxError("in a string escape")
		case c < 0x20:
			d.off = i
			return false, d.syntaxError("in a string")
		default:
			i++
		}
	}
	d.off = len(data)
	return false, d.syntaxError("in a string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// number reads past the number at the cursor, checking JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (d *rankingDecoder) number() error {
	data, i := d.data, d.off
	if data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(data, i)
	default:
		d.off = i
		return d.syntaxError("in a number")
	}
	if i < len(data) && data[i] == '.' {
		j := digits(data, i+1)
		if j == i+1 {
			d.off = j
			return d.syntaxError("after a decimal point")
		}
		i = j
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := digits(data, i)
		if j == i {
			d.off = j
			return d.syntaxError("in an exponent")
		}
		i = j
	}
	d.off = i
	return nil
}

// digits returns the offset after the run of decimal digits at data[i:].
func digits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}
