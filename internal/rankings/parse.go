package rankings

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseRanking parses the paper's bracket notation, e.g. "[{A},{B,C}]".
// Buckets may also be separated with ">" and tied elements with "=" in the
// alternative compact notation "A > B=C". Whitespace around names is
// ignored. A name may not hold ',', '}' or a line break, so Universe.Format
// writes every parsed ranking back as one line that parses to the same
// buckets. Names are resolved (and created) in the universe only once the
// whole string has parsed, so a rejected string adds no names.
func ParseRanking(s string, u *Universe) (*Ranking, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("rankings: empty ranking string")
	}
	var buckets [][]string
	var err error
	if strings.HasPrefix(s, "[") {
		buckets, err = parseBracket(s)
	} else {
		buckets, err = parseCompact(s)
	}
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for _, b := range buckets {
		for _, name := range b {
			if seen[name] {
				return nil, fmt.Errorf("rankings: element %q appears more than once", name)
			}
			seen[name] = true
		}
	}
	r := &Ranking{}
	for _, b := range buckets {
		ids := make([]int, len(b))
		for i, name := range b {
			ids[i] = u.ID(name)
		}
		r.Buckets = append(r.Buckets, ids)
	}
	return r, nil
}

func parseBracket(s string) ([][]string, error) {
	if !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("rankings: missing closing ']' in %q", s)
	}
	body := strings.TrimSpace(s[1 : len(s)-1])
	var buckets [][]string
	for body != "" {
		if body[0] != '{' {
			return nil, fmt.Errorf("rankings: expected '{' at %q", body)
		}
		end := strings.IndexByte(body, '}')
		if end < 0 {
			return nil, fmt.Errorf("rankings: missing closing '}' in %q", body)
		}
		bucket, err := parseBucket(body[1:end], ",")
		if err != nil {
			return nil, err
		}
		buckets = append(buckets, bucket)
		body = strings.TrimSpace(body[end+1:])
		body = strings.TrimPrefix(body, ",")
		body = strings.TrimSpace(body)
	}
	return buckets, nil
}

func parseCompact(s string) ([][]string, error) {
	var buckets [][]string
	for _, part := range strings.Split(s, ">") {
		bucket, err := parseBucket(part, "=")
		if err != nil {
			return nil, err
		}
		buckets = append(buckets, bucket)
	}
	return buckets, nil
}

func parseBucket(s, sep string) ([]string, error) {
	names := strings.Split(s, sep)
	for i, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("rankings: empty element name in bucket %q", s)
		}
		if err := checkName(name); err != nil {
			return nil, err
		}
		names[i] = name
	}
	return names, nil
}

// checkName rejects an element name the bracket notation cannot write
// back: Universe.Format would put a ',', '}' or line break in it where
// ParseRanking splits a bucket, ends one or ends the line, and
// ParseRanking trims the white space around each name.
func checkName(name string) error {
	if strings.ContainsAny(name, ",}\n\r") {
		return fmt.Errorf("rankings: element name %q holds ',', '}' or a line break", name)
	}
	if strings.TrimSpace(name) != name {
		return fmt.Errorf("rankings: element name %q has leading or trailing white space", name)
	}
	return nil
}

// ParseDataset reads one ranking per non-empty line from r. Lines starting
// with '#' are comments. All rankings share the returned universe; the
// dataset universe size is the number of distinct names seen.
func ParseDataset(r io.Reader) (*Dataset, *Universe, error) {
	u := NewUniverse()
	var rks []*Ranking
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		rk, err := ParseRanking(text, u)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", line, err)
		}
		rks = append(rks, rk)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return &Dataset{N: u.Size(), Rankings: rks}, u, nil
}

// WriteDataset writes one ranking per line in bracket notation using the
// universe's names.
func WriteDataset(w io.Writer, d *Dataset, u *Universe) error {
	for _, r := range d.Rankings {
		if _, err := fmt.Fprintln(w, u.Format(r)); err != nil {
			return err
		}
	}
	return nil
}

// MustParse is a test/example helper: it parses a ranking in either notation
// and panics on error.
func MustParse(s string, u *Universe) *Ranking {
	r, err := ParseRanking(s, u)
	if err != nil {
		panic(err)
	}
	return r
}
