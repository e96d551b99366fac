package rankings

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// FromScores builds a ranking with ties from per-element scores: higher
// scores rank first, and elements whose scores differ by at most eps are
// tied. This is the usual entry point for real data (search engine scores,
// gene relevance, ratings) where equal or near-equal scores are exactly the
// "ties" the paper argues must not be broken arbitrarily.
//
// Elements are the keys of scores; eps < 0 is treated as 0 (exact equality).
func FromScores(scores map[int]float64, eps float64) *Ranking {
	if eps < 0 {
		eps = 0
	}
	type es struct {
		e int
		s float64
	}
	elems := make([]es, 0, len(scores))
	for e, s := range scores {
		elems = append(elems, es{e, s})
	}
	sort.Slice(elems, func(i, j int) bool {
		if elems[i].s != elems[j].s {
			return elems[i].s > elems[j].s
		}
		return elems[i].e < elems[j].e
	})
	r := &Ranking{}
	for i := 0; i < len(elems); {
		j := i
		for j < len(elems) && elems[i].s-elems[j].s <= eps {
			j++
		}
		bucket := make([]int, 0, j-i)
		for _, x := range elems[i:j] {
			bucket = append(bucket, x.e)
		}
		r.Buckets = append(r.Buckets, bucket)
		i = j
	}
	return r
}

// ScoreRecord is one row of a scored-list input: a source (ranking) name,
// an item name, and its score within that source.
type ScoreRecord struct {
	Source string
	Item   string
	Score  float64
}

// ParseScoreCSV reads "source,item,score" rows (no header, or a header
// starting with "source") and builds one ranking with ties per source,
// tying items whose scores within a source differ by at most eps. The
// returned dataset is raw: rankings may cover different items (normalize
// before aggregating).
func ParseScoreCSV(r io.Reader, eps float64) (*Dataset, *Universe, error) {
	recs, err := ReadScoreRecords(r)
	if err != nil {
		return nil, nil, err
	}
	return DatasetFromScores(recs, eps)
}

// ReadScoreRecords parses the CSV rows of ParseScoreCSV.
func ReadScoreRecords(r io.Reader) ([]ScoreRecord, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	cr.TrimLeadingSpace = true
	var out []ScoreRecord
	line := 0
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		line++
		if line == 1 && row[0] == "source" {
			continue
		}
		score, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return nil, fmt.Errorf("rankings: row %d: bad score %q: %w", line, row[2], err)
		}
		if math.IsNaN(score) || math.IsInf(score, 0) {
			return nil, fmt.Errorf("rankings: row %d: non-finite score", line)
		}
		out = append(out, ScoreRecord{Source: row[0], Item: row[1], Score: score})
	}
	return out, nil
}

// DatasetFromScores groups score records by source and builds the dataset.
// Sources appear in first-seen order; duplicate (source, item) pairs keep
// the last score. An item name must be one ParseRanking accepts, so the
// bracket notation writes every ranking back with the same buckets.
func DatasetFromScores(recs []ScoreRecord, eps float64) (*Dataset, *Universe, error) {
	u := NewUniverse()
	bySource := map[string]map[int]float64{}
	var order []string
	for _, rec := range recs {
		if rec.Source == "" || rec.Item == "" {
			return nil, nil, fmt.Errorf("rankings: empty source or item name")
		}
		if err := checkName(rec.Item); err != nil {
			return nil, nil, err
		}
		m, ok := bySource[rec.Source]
		if !ok {
			m = map[int]float64{}
			bySource[rec.Source] = m
			order = append(order, rec.Source)
		}
		m[u.ID(rec.Item)] = rec.Score
	}
	d := &Dataset{N: u.Size()}
	for _, src := range order {
		d.Rankings = append(d.Rankings, FromScores(bySource[src], eps))
	}
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	return d, u, nil
}
