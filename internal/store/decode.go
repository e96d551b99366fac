package store

import (
	"fmt"
	"slices"
	"strings"

	"rankagg/internal/rankings"
)

// The store's three documents are read in one pass each by
// rankings.DocReader: every ranking goes straight to the ranking scanner,
// which validates it once, and only the few other values go through
// encoding/json. Each reader accepts exactly what encoding/json accepts
// into the wire struct and gives the same values — keys matched by exact
// name, else by strings.EqualFold (no two fields of one struct fold
// together, so the first fold match is the only one); a repeated key
// decoded again into the same field; null leaving a scalar as it was and
// setting a pointer, slice or map to nil. decode_test.go keeps the
// encoding/json decode as the oracle they are tested against.

// readSnapshot reads snapshot.json and validates the dataset it holds.
// The scanner has validated every ranking, so the universe check needs
// only their largest element; Dataset.Validate runs only to name the
// ranking at fault.
func readSnapshot(raw []byte) (*snapshotWire, error) {
	var snap snapshotWire
	maxE := -1
	r := rankings.NewDocReader(raw)
	_, err := r.Object(func(key string) (err error) {
		switch {
		case strings.EqualFold(key, "hash"):
			return r.Decode(&snap.Hash)
		case strings.EqualFold(key, "version"):
			return r.Decode(&snap.Version)
		case strings.EqualFold(key, "seq"):
			return r.Decode(&snap.Seq)
		case strings.EqualFold(key, "n"):
			return r.Decode(&snap.N)
		case strings.EqualFold(key, "names"):
			return r.Decode(&snap.Names)
		case strings.EqualFold(key, "rankings"):
			snap.Rankings, maxE, err = r.Rankings()
			return err
		}
		return r.Skip()
	})
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", snapshotFile, err)
	}
	if snap.N < 0 || maxE >= snap.N || slices.Contains(snap.Rankings, nil) {
		base := &rankings.Dataset{N: snap.N, Rankings: snap.Rankings}
		return nil, fmt.Errorf("invalid snapshot: %w", base.Validate())
	}
	return &snap, nil
}

// readLogRecord reads one delta-log record's payload.
func readLogRecord(payload []byte) (logRecord, error) {
	var rec logRecord
	r := rankings.NewDocReader(payload)
	_, err := r.Object(func(key string) (err error) {
		switch {
		case strings.EqualFold(key, "seq"):
			return r.Decode(&rec.Seq)
		case strings.EqualFold(key, "op"):
			return r.Decode(&rec.Op)
		case strings.EqualFold(key, "add"):
			rec.Add, _, err = r.Rankings()
			return err
		case strings.EqualFold(key, "remove"):
			rec.Remove, _, err = r.Rankings()
			return err
		}
		return r.Skip()
	})
	if err == nil {
		err = r.End()
	}
	return rec, err
}

// readConsensus reads consensus.json for a dataset of n elements and drops
// every entry or warm hint whose consensus is not a ranking of exactly the
// dataset's elements (null, or naming elements the dataset lacks): one
// would be served on a cache hit or seed a solve. The scanner has
// validated each consensus, so a full ranking is one of n elements whose
// largest is below n.
func readConsensus(raw []byte, n int) (consensusFile, error) {
	var cf consensusFile
	var warmFull bool
	r := rankings.NewDocReader(raw)
	_, err := r.Object(func(key string) error {
		switch {
		case strings.EqualFold(key, "hash"):
			return r.Decode(&cf.Hash)
		case strings.EqualFold(key, "entries"):
			// A repeated entries object adds to the map before it.
			entries := cf.Entries
			if entries == nil {
				entries = make(map[string]*ResultWire)
			}
			null, err := r.Object(func(spec string) error {
				// A map value is decoded fresh for every occurrence of
				// its key, and the last occurrence wins.
				var e ResultWire
				full := false
				null, err := r.Object(resultMember(r, &e, n, &full))
				if null || !full {
					delete(entries, spec)
				} else {
					entries[spec] = &e
				}
				return err
			})
			cf.Entries = entries
			if null {
				cf.Entries = nil
			}
			return err
		case strings.EqualFold(key, "warm"):
			// A repeated warm object is decoded into the one before it.
			if cf.Warm == nil {
				cf.Warm, warmFull = new(ResultWire), false
			}
			null, err := r.Object(resultMember(r, cf.Warm, n, &warmFull))
			if null {
				cf.Warm = nil
			}
			return err
		}
		return r.Skip()
	})
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return consensusFile{}, err
	}
	if cf.Warm != nil && !warmFull {
		cf.Warm = nil
	}
	return cf, nil
}

// resultMember reads one member of a ResultWire object into w; full
// tracks whether w's consensus is a full ranking of n elements.
func resultMember(r *rankings.DocReader, w *ResultWire, n int, full *bool) func(string) error {
	return func(key string) error {
		switch {
		case strings.EqualFold(key, "algorithm"):
			return r.Decode(&w.Algorithm)
		case strings.EqualFold(key, "consensus"):
			rk, maxE, err := r.Ranking()
			w.Consensus = rk
			*full = rk != nil && maxE < n && rk.Len() == n
			return err
		case strings.EqualFold(key, "score"):
			return r.Decode(&w.Score)
		case strings.EqualFold(key, "proved"):
			return r.Decode(&w.Proved)
		case strings.EqualFold(key, "approx"):
			return r.Decode(&w.Approx)
		case strings.EqualFold(key, "stats"):
			return r.Decode(&w.Stats)
		}
		return r.Skip()
	}
}
