package store

import (
	"encoding/json"
	"strconv"

	"rankagg"
	"rankagg/internal/rankings"
)

// snapshotWire is the on-disk form of a dataset's base snapshot
// (snapshot.json): the rankings wire form plus the store's replay anchors.
// Seq is the sequence number of the last delta-log record folded into this
// snapshot — replay skips records at or below it, which is what makes
// compaction crash-safe: a new snapshot committed before the log is
// truncated simply makes the old records no-ops. Version is the cumulative
// mutation count (rankings added + removed) at fold time, so the version a
// restarted process reports continues the pre-restart numbering.
type snapshotWire struct {
	Hash     string              `json:"hash"`
	Version  uint64              `json:"version"`
	Seq      int64               `json:"seq"`
	N        int                 `json:"n"`
	Names    []string            `json:"names,omitempty"`
	Rankings []*rankings.Ranking `json:"rankings"`
}

// marshalSnapshot encodes snap byte for byte as json.Marshal does, in one
// pass: every ranking appends its bucket arrays (Ranking.AppendJSON) to
// one buffer sized up front, instead of marshaling into a buffer of its
// own that json.Marshal then scans again to compact. The strings go
// through encoding/json, for its escaping.
func marshalSnapshot(snap *snapshotWire) ([]byte, error) {
	hash, err := json.Marshal(snap.Hash)
	if err != nil {
		return nil, err
	}
	var names []byte
	if len(snap.Names) > 0 {
		if names, err = json.Marshal(snap.Names); err != nil {
			return nil, err
		}
	}
	// An element of a valid dataset has at most as many digits as n-1.
	elem := len(strconv.Itoa(max(snap.N-1, 0))) + 1
	size := 96 + len(hash) + len(names)
	for _, r := range snap.Rankings {
		size += 3
		if r != nil {
			for _, b := range r.Buckets {
				size += 3 + elem*len(b)
			}
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, `{"hash":`...)
	buf = append(buf, hash...)
	buf = append(buf, `,"version":`...)
	buf = strconv.AppendUint(buf, snap.Version, 10)
	buf = append(buf, `,"seq":`...)
	buf = strconv.AppendInt(buf, snap.Seq, 10)
	buf = append(buf, `,"n":`...)
	buf = strconv.AppendInt(buf, int64(snap.N), 10)
	if names != nil {
		buf = append(buf, `,"names":`...)
		buf = append(buf, names...)
	}
	buf = append(buf, `,"rankings":`...)
	if snap.Rankings == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, r := range snap.Rankings {
			if i > 0 {
				buf = append(buf, ',')
			}
			if r == nil {
				buf = append(buf, "null"...)
			} else {
				buf = r.AppendJSON(buf)
			}
		}
		buf = append(buf, ']')
	}
	return append(buf, '}'), nil
}

// logRecord is the payload of one delta-log record. Op "patch" carries one
// atomic delta (removals applied before additions, exactly
// Session.ApplyDelta's semantics — a batch PATCH is ONE record); op
// "tombstone" marks the dataset deleted, making a crash mid-removal
// recoverable (replay sees the tombstone and finishes the cleanup).
type logRecord struct {
	Seq    int64               `json:"seq"`
	Op     string              `json:"op"`
	Add    []*rankings.Ranking `json:"add,omitempty"`
	Remove []*rankings.Ranking `json:"remove,omitempty"`
}

const (
	opPatch     = "patch"
	opTombstone = "tombstone"
)

// ResultWire is the persisted form of an aggregation result — the
// consensus-cache entry that survives a restart. It carries exactly the
// result-describing fields (no timing): a restarted server answering from
// a persisted entry reports the same consensus, score and search stats the
// original solve did.
type ResultWire struct {
	Algorithm string              `json:"algorithm"`
	Consensus *rankings.Ranking   `json:"consensus"`
	Score     int64               `json:"score"`
	Proved    bool                `json:"proved"`
	Approx    bool                `json:"approx,omitempty"`
	Stats     rankagg.SearchStats `json:"stats"`
}

// WireFromResult converts a run result into its persisted form, or nil for
// results that must not be persisted (nil, no consensus or deadline-cut —
// the same exclusions the in-memory consensus cache applies). Approx-tier
// results persist like any other: they are deterministic for their
// (dataset, spec), and the Approx flag survives the round trip so a
// restarted server reports them honestly.
func WireFromResult(res *rankagg.Result) *ResultWire {
	if res == nil || res.Consensus == nil || res.DeadlineHit {
		return nil
	}
	return &ResultWire{
		Algorithm: res.Algorithm,
		Consensus: res.Consensus,
		Score:     res.Score,
		Proved:    res.Proved,
		Approx:    res.Approx,
		Stats:     res.Stats,
	}
}

// Result converts a persisted entry back into a run result.
func (w *ResultWire) Result() *rankagg.Result {
	if w == nil {
		return nil
	}
	return &rankagg.Result{
		Algorithm: w.Algorithm,
		Consensus: w.Consensus,
		Score:     w.Score,
		Proved:    w.Proved,
		Approx:    w.Approx,
		Stats:     w.Stats,
	}
}

// consensusFile is the on-disk form of a dataset's persisted consensus
// entries (consensus.json): the spec-keyed results valid for exactly the
// dataset state identified by Hash, plus at most one warm-start hint. When
// a restarting store finds Hash stale (a crash landed between the delta-log
// append and the consensus rewrite), the entries are not served — the best
// of them is demoted to the warm hint of the replayed current hash, exactly
// what the in-memory invalidation would have done.
type consensusFile struct {
	Hash    string                 `json:"hash"`
	Entries map[string]*ResultWire `json:"entries,omitempty"`
	Warm    *ResultWire            `json:"warm,omitempty"`
}
