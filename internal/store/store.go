// Package store is the serving layer's durable dataset substrate: every
// persisted dataset lives in its own directory as a wire-form base
// snapshot (snapshot.json) plus an append-only delta log (delta.log, one
// fsync'd, length-prefixed, CRC-checksummed record per PATCH), alongside
// the dataset's persisted consensus entries (consensus.json). The in-memory
// LRU above it (internal/cache) stays the fast path; the store is what
// survives eviction and restarts — a PATCH whose base session fell out of
// the cache, or a fresh process on the same data dir, reconstructs the
// session by loading the snapshot, building its pair matrix once, and
// replaying the log through Pairs.Add/Remove in O(n²) per record
// (byte-identical to a fresh build of the final dataset; property-tested).
//
// Durability protocol:
//
//   - Create writes the snapshot atomically (temp + fsync + rename + dir
//     fsync) and is idempotent by content hash. Directories are named by the
//     creation hash but claimed with os.Mkdir: a name still owned by a live
//     dataset whose hash has rotated away (or left by a crashed create) is
//     never reused — the new dataset takes a suffixed name instead.
//   - A PATCH appends ONE log record — however many ops it batches — and
//     fsyncs before anything in-memory mutates (write-ahead). A crash after
//     the append replays the record on restart; the un-acknowledged PATCH
//     is simply already applied, deterministically. A FAILED append is
//     rolled back (fsync'd truncate to the pre-append length) so a record
//     the client was told failed cannot replay; if the rollback itself
//     fails the dataset refuses further mutations (ErrLogDiverged) until a
//     restart replays the file as written.
//   - Records carry monotone sequence numbers and the snapshot records the
//     last sequence folded into it, so compaction — rewriting the snapshot
//     at the current state once the log exceeds the replay budget — commits
//     atomically at the snapshot rename: a crash before the log truncation
//     leaves old records that replay skips as no-ops.
//   - A corrupt log tail (torn write) is truncated on open and counted,
//     never parsed and never fatal. A checksum-valid record that no longer
//     applies is truncated the same way — together with everything after
//     it — so the file always matches the state the store serves.
//   - Delete appends a tombstone record before removing the directory, so
//     a crash mid-removal finishes the cleanup on the next open instead of
//     resurrecting a half-deleted dataset.
//   - A PATCH that turns one dataset into the content another one holds
//     retires the patched one the same way (tombstone, then removal): the
//     incumbent keeps the hash and its consensus. Open retires the second
//     of any two directories that replay to one content, which a crash
//     before that retirement leaves.
//
// Consensus persistence: consensus.json holds the spec-keyed results valid
// for exactly one dataset state (its current hash at write time) plus at
// most one warm-start hint. A PATCH rotates the file in the same critical
// section as the log append, demoting the best stored entry to the rotated
// hash's warm hint — and Open applies the same demotion when a crash left
// the file stamped with a stale hash. A restarted server preloads these
// entries and answers repeat traffic with consensus hits and zero solver
// runs.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rankagg"
	"rankagg/internal/rankings"
)

// ErrNotFound reports a dataset hash the store does not hold (never held,
// rotated away by a PATCH, or deleted).
var ErrNotFound = errors.New("store: dataset not found")

// ErrStaleHash reports a lookup that raced a concurrent PATCH: the hash
// identified the dataset when the caller obtained it, but the dataset has
// rotated since. The caller follows the rotation (Location header) or
// retries.
var ErrStaleHash = errors.New("store: dataset hash rotated concurrently")

// ErrLogDiverged reports a dataset whose delta log hit an append failure
// that could not be rolled back: the file may hold a record the client was
// never told about, so in-memory and on-disk sequence numbers can no longer
// be trusted to agree. The dataset rejects further mutations (reads still
// serve the last acknowledged state) until a restart replays the log.
var ErrLogDiverged = errors.New("store: dataset log diverged; restart to recover")

// Config parameterizes Open.
type Config struct {
	// Dir is the data directory root. Created if missing.
	Dir string
	// ReplayBudget is the delta-log length (in records) past which a PATCH
	// folds the log into a fresh snapshot: replaying r records costs
	// r·O(n²), a snapshot rebuild O(m·n²), so the budget trades write
	// amplification against cold-reconstruction latency. 0 means the
	// default (64); negative disables compaction.
	ReplayBudget int
	// MatrixMode is the pair-matrix storage mode Rebuild uses, matching
	// the serving layer's -matrix-mode so a reconstructed session is
	// indistinguishable from a fresh build.
	MatrixMode rankagg.MatrixMode
}

// Stats is a point-in-time snapshot of the store counters.
type Stats struct {
	// Datasets is the number of datasets currently persisted.
	Datasets int
	// LogRecords is the total pending (un-compacted) delta-log records
	// across all datasets.
	LogRecords int
	// Replays counts session reconstructions (Rebuild calls that ran), and
	// ReplaySeconds their cumulative wall-clock cost.
	Replays       int64
	ReplaySeconds float64
	// Compactions counts delta logs folded into a fresh snapshot.
	Compactions int64
	// Truncations counts corrupt log tails truncated on open.
	Truncations int64
	// Bytes is the on-disk footprint (snapshots + logs) of all datasets.
	Bytes int64
}

// DatasetInfo describes one persisted dataset.
type DatasetInfo struct {
	// Hash is the dataset's CURRENT content hash — the handle every
	// endpoint keys on, rotated by each PATCH.
	Hash string
	N    int
	M    int
	// Version is the cumulative mutation count (rankings added + removed)
	// since creation, surviving compaction and restarts.
	Version uint64
	// LogRecords is the pending delta-log length (records not yet folded
	// into the snapshot); Bytes the dataset's on-disk footprint.
	LogRecords int
	Bytes      int64
}

// dataset is one persisted dataset's in-memory state. The store keeps the
// current rankings resident — O(m·n) per dataset, dwarfed by any cached
// O(n²) matrix — so PATCH validation and hash rotation never touch disk
// beyond the log append itself.
type dataset struct {
	mu  sync.Mutex
	dir string

	base        *rankings.Dataset // as persisted in snapshot.json
	baseVersion uint64
	baseSeq     int64
	names       []string

	cur     *rankings.Dataset
	curHash string
	version uint64
	seq     int64 // last appended record's sequence number

	pending   []logRecord // records after baseSeq, in order
	log       *os.File
	logBytes  int64
	snapBytes int64

	consensus consensusFile
	deleted   bool
	// failed latches an append whose rollback also failed (ErrLogDiverged):
	// the on-disk log may hold a record in-memory state never applied, so
	// mutations are refused until a restart replays the file as written.
	failed bool
}

// Store is the durable dataset store. All methods are safe for concurrent
// use. Lock order: a dataset's mu may take the store's mu (for re-keying),
// never the reverse.
type Store struct {
	dir          string
	replayBudget int
	matrixMode   rankagg.MatrixMode

	mu     sync.Mutex
	byHash map[string]*dataset
	// creating holds the content hashes with a Create in flight: the
	// snapshot's fsync'd I/O runs outside mu, so the hash is reserved here
	// first and a second identical PUT waits on the channel instead of
	// writing a duplicate directory.
	creating map[string]chan struct{}

	replays     atomic.Int64
	replayNanos atomic.Int64
	compactions atomic.Int64
	truncations atomic.Int64
}

const (
	snapshotFile  = "snapshot.json"
	deltaLogFile  = "delta.log"
	consensusName = "consensus.json"
	datasetsDir   = "datasets"
)

// Open loads (or initializes) the store rooted at cfg.Dir: every dataset
// directory's snapshot is read, its delta log replayed at the dataset level
// (cheap — no matrices are built here), corrupt tails truncated, tombstoned
// directories removed, and stale consensus files demoted per the crash
// protocol above.
func Open(cfg Config) (*Store, error) {
	budget := cfg.ReplayBudget
	if budget == 0 {
		budget = 64
	}
	root := filepath.Join(cfg.Dir, datasetsDir)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", root, err)
	}
	s := &Store{
		dir:          cfg.Dir,
		replayBudget: budget,
		matrixMode:   cfg.MatrixMode,
		byHash:       make(map[string]*dataset),
		creating:     make(map[string]chan struct{}),
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", root, err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		dir := filepath.Join(root, ent.Name())
		ds, err := s.openDataset(dir)
		if err != nil {
			return nil, fmt.Errorf("store: opening dataset %s: %w", ent.Name(), err)
		}
		if ds == nil {
			continue // tombstoned or unreadable; cleaned up
		}
		if _, dup := s.byHash[ds.curHash]; dup {
			// Two directories replay to the same content (a crash landed
			// between a clashing PATCH and its retirement, see
			// AppendPatch): keep the first, and retire the duplicate,
			// which nothing can reach.
			ds.retireLocked()
			continue
		}
		s.byHash[ds.curHash] = ds
	}
	return s, nil
}

// openDataset loads one dataset directory; nil, nil means the directory
// was tombstoned (and has been removed) or holds no snapshot.
func (s *Store) openDataset(dir string) (*dataset, error) {
	snapPath := filepath.Join(dir, snapshotFile)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		if os.IsNotExist(err) {
			// A crash between directory creation and the snapshot rename,
			// or mid-deletion after the tombstone removed the snapshot;
			// either way nothing here is reachable.
			os.RemoveAll(dir)
			return nil, nil
		}
		return nil, err
	}
	snap, err := readSnapshot(raw)
	if err != nil {
		return nil, err
	}
	base := &rankings.Dataset{N: snap.N, Rankings: snap.Rankings}
	ds := &dataset{
		dir:         dir,
		base:        base,
		baseVersion: snap.Version,
		baseSeq:     snap.Seq,
		names:       snap.Names,
		cur:         base,
		version:     snap.Version,
		seq:         snap.Seq,
		snapBytes:   int64(len(raw)),
	}

	logPath := filepath.Join(dir, deltaLogFile)
	data, err := os.ReadFile(logPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	payloads, offsets, goodLen := readLog(data)
	if goodLen < int64(len(data)) {
		if err := os.Truncate(logPath, goodLen); err != nil {
			return nil, fmt.Errorf("truncating corrupt log tail: %w", err)
		}
		s.truncations.Add(1)
	}
	tombstoned := false
	for i, payload := range payloads {
		rec, err := readLogRecord(payload)
		if err != nil {
			return nil, fmt.Errorf("parsing log record: %w", err)
		}
		if rec.Seq <= ds.baseSeq {
			continue // already folded into the snapshot (compaction raced a crash)
		}
		if rec.Op == opTombstone {
			tombstoned = true
			break
		}
		next, _, err := rankings.ApplyDelta(ds.cur, rec.Add, rec.Remove)
		if err != nil {
			// A record that no longer applies can only come from
			// corruption that passed the checksum; treat it — and
			// everything after it — as the torn tail it effectively is,
			// ON DISK TOO: left in place it would shadow every later
			// append (duplicate sequence numbers, records skipped on the
			// next open), so the file must match the state served here.
			if err := os.Truncate(logPath, offsets[i]); err != nil {
				return nil, fmt.Errorf("truncating unappliable log tail: %w", err)
			}
			s.truncations.Add(1)
			break
		}
		ds.cur = next
		ds.version += uint64(len(rec.Add) + len(rec.Remove))
		ds.seq = rec.Seq
		ds.pending = append(ds.pending, rec)
	}
	if tombstoned {
		os.RemoveAll(dir)
		return nil, nil
	}
	ds.curHash = ds.cur.Hash()

	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	ds.log = f
	if fi, err := f.Stat(); err == nil {
		ds.logBytes = fi.Size()
	}

	// Consensus entries are valid for exactly one dataset state. A stale
	// stamp means a crash landed between a PATCH's log append and its
	// consensus rewrite: demote the best entry to the current hash's warm
	// hint — deterministically the same outcome the completed PATCH would
	// have persisted.
	if err := ds.loadConsensus(); err != nil {
		return nil, err
	}
	return ds, nil
}

func (ds *dataset) loadConsensus() error {
	raw, err := os.ReadFile(filepath.Join(ds.dir, consensusName))
	if os.IsNotExist(err) {
		ds.consensus = consensusFile{Hash: ds.curHash}
		return nil
	}
	if err != nil {
		return err
	}
	cf, err := readConsensus(raw, ds.cur.N)
	if err != nil {
		// A torn consensus write loses cached results, never data.
		ds.consensus = consensusFile{Hash: ds.curHash}
		return nil
	}
	if cf.Hash != ds.curHash {
		cf = consensusFile{Hash: ds.curHash, Warm: bestEntry(cf.Entries)}
		data, err := json.Marshal(cf)
		if err == nil {
			writeFileSync(filepath.Join(ds.dir, consensusName), data)
		}
	}
	ds.consensus = cf
	return nil
}

// bestEntry picks the lowest-score persisted result — the warm-start
// candidate, mirroring the in-memory cache's InvalidateDataset harvest.
func bestEntry(entries map[string]*ResultWire) *ResultWire {
	var best *ResultWire
	for _, e := range entries {
		if e == nil || e.Consensus == nil {
			continue
		}
		if best == nil || e.Score < best.Score {
			best = e
		}
	}
	return best
}

// Close releases the store's file handles. The store must not be used
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ds := range s.byHash {
		ds.mu.Lock()
		ds.closeLocked()
		ds.mu.Unlock()
	}
	s.byHash = make(map[string]*dataset)
	return nil
}

func (ds *dataset) closeLocked() {
	if ds.log != nil {
		ds.log.Close()
		ds.log = nil
	}
}

// lookup fetches the dataset currently indexed under hash.
func (s *Store) lookup(hash string) (*dataset, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds, ok := s.byHash[hash]
	return ds, ok
}

// Has reports whether hash is a persisted dataset's current hash.
func (s *Store) Has(hash string) bool {
	_, ok := s.lookup(hash)
	return ok
}

// Create persists d (with optional element names) under its content hash,
// idempotently: an existing dataset with the same hash is left untouched
// and created reports false. The snapshot is durable when Create returns.
//
// The fsync'd snapshot I/O runs outside the store mutex — lookups, PATCH
// re-keys and deletes on other datasets never wait behind a PUT's disk
// latency. The hash is reserved first so two identical concurrent PUTs
// serialize; the loser reports the dataset as already existing.
func (s *Store) Create(d *rankings.Dataset, names []string) (hash string, created bool, err error) {
	hash = d.Hash()
	var reserved chan struct{}
	for {
		s.mu.Lock()
		if _, ok := s.byHash[hash]; ok {
			s.mu.Unlock()
			return hash, false, nil
		}
		ch, busy := s.creating[hash]
		if !busy {
			reserved = make(chan struct{})
			s.creating[hash] = reserved
			s.mu.Unlock()
			break
		}
		s.mu.Unlock()
		<-ch
	}
	defer func() {
		s.mu.Lock()
		delete(s.creating, hash)
		s.mu.Unlock()
		close(reserved)
	}()

	// The directory is named by the creation hash, but a PATCH rotates the
	// index key while the directory keeps its name — so the hash being free
	// does NOT mean its directory is. os.Mkdir is the collision detector:
	// on EEXIST the name belongs to someone else (a live rotated dataset,
	// or debris from a crashed create) and this dataset takes the next
	// suffixed name instead of overwriting files another dataset owns.
	root := filepath.Join(s.dir, datasetsDir)
	dir := filepath.Join(root, hash)
	for i := 1; ; i++ {
		mkErr := os.Mkdir(dir, 0o755)
		if mkErr == nil {
			break
		}
		if !os.IsExist(mkErr) {
			return "", false, fmt.Errorf("store: creating %s: %w", dir, mkErr)
		}
		dir = filepath.Join(root, fmt.Sprintf("%s-%d", hash, i))
	}
	raw, err := marshalSnapshot(&snapshotWire{Hash: hash, N: d.N, Names: names, Rankings: d.Rankings})
	if err != nil {
		os.RemoveAll(dir)
		return "", false, err
	}
	if err := writeFileSync(filepath.Join(dir, snapshotFile), raw); err != nil {
		os.RemoveAll(dir)
		return "", false, fmt.Errorf("store: writing snapshot: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, deltaLogFile), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		os.RemoveAll(dir)
		return "", false, err
	}
	ds := &dataset{
		dir:       dir,
		base:      d,
		names:     names,
		cur:       d,
		curHash:   hash,
		snapBytes: int64(len(raw)),
		log:       f,
		consensus: consensusFile{Hash: hash},
	}
	s.mu.Lock()
	if _, clash := s.byHash[hash]; clash {
		// While the snapshot was being written, a PATCH rotated another
		// dataset TO this exact content. Identical content is
		// indistinguishable to every caller — keep the incumbent, drop the
		// just-written copy.
		s.mu.Unlock()
		f.Close()
		os.RemoveAll(dir)
		return hash, false, nil
	}
	s.byHash[hash] = ds
	s.mu.Unlock()
	return hash, true, nil
}

// AppendPatch validates one atomic delta against the dataset currently at
// hash, appends it to the delta log as ONE record (fsync'd — the
// write-ahead point), rotates the dataset to its new content hash, rotates
// the persisted consensus file (best stored entry demoted to the new
// hash's warm hint), and folds the log into a fresh snapshot when it
// exceeds the replay budget. Validation is the delta rule both session
// tiers apply (rankings.ApplyDelta) — same matching, same ordering, same
// sentinel errors — so the store and a cached session can never diverge on
// what a delta means.
func (s *Store) AppendPatch(hash string, add, remove []*rankings.Ranking) (newHash string, info DatasetInfo, err error) {
	ds, ok := s.lookup(hash)
	if !ok {
		return "", DatasetInfo{}, ErrNotFound
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.deleted || ds.curHash != hash {
		return "", DatasetInfo{}, ErrStaleHash
	}
	if ds.failed {
		return "", DatasetInfo{}, ErrLogDiverged
	}
	next, _, err := rankings.ApplyDelta(ds.cur, add, remove)
	if err != nil {
		return "", DatasetInfo{}, err
	}

	rec := logRecord{Seq: ds.seq + 1, Op: opPatch, Add: add, Remove: remove}
	payload, err := json.Marshal(rec)
	if err != nil {
		return "", DatasetInfo{}, err
	}
	n, err := appendRecord(ds.log, payload, ds.logBytes)
	if err != nil {
		if errors.Is(err, ErrLogDiverged) {
			ds.failed = true
		}
		return "", DatasetInfo{}, err
	}
	ds.logBytes += n
	ds.seq = rec.Seq
	ds.pending = append(ds.pending, rec)
	ds.cur = next
	ds.version += uint64(len(add) + len(remove))
	newHash = next.Hash()
	oldHash := ds.curHash
	ds.curHash = newHash

	// Re-key the index. Lock order: dataset mu → store mu, always.
	s.mu.Lock()
	delete(s.byHash, oldHash)
	_, clash := s.byHash[newHash]
	if !clash {
		s.byHash[newHash] = ds
	}
	s.mu.Unlock()
	if clash {
		// Another dataset already holds this content: it keeps the hash
		// and its consensus, and this one, which no hash reaches any more,
		// is retired as Delete retires a dataset. The delta is durable
		// and its content served either way; a crash before the
		// retirement leaves two directories of one content, and the next
		// Open retires one of them.
		ds.retireLocked()
		return newHash, ds.infoLocked(), nil
	}

	// Rotate the persisted consensus in the same critical section: the old
	// hash's entries can never be served again, their best becomes the new
	// hash's warm hint.
	ds.consensus = consensusFile{Hash: newHash, Warm: bestEntry(ds.consensus.Entries)}
	ds.writeConsensusLocked()

	if s.replayBudget > 0 && len(ds.pending) > s.replayBudget {
		if err := ds.compactLocked(); err == nil {
			s.compactions.Add(1)
		}
	}
	return newHash, ds.infoLocked(), nil
}

// compactLocked folds the pending log into a fresh snapshot at the current
// state. The snapshot rename is the commit point (records at or below its
// Seq replay as no-ops); the log truncation after it is pure space
// reclamation. Caller holds ds.mu.
func (ds *dataset) compactLocked() error {
	raw, err := marshalSnapshot(&snapshotWire{
		Hash:     ds.curHash,
		Version:  ds.version,
		Seq:      ds.seq,
		N:        ds.cur.N,
		Names:    ds.names,
		Rankings: ds.cur.Rankings,
	})
	if err != nil {
		return err
	}
	if err := writeFileSync(filepath.Join(ds.dir, snapshotFile), raw); err != nil {
		return err
	}
	ds.base = ds.cur
	ds.baseVersion = ds.version
	ds.baseSeq = ds.seq
	ds.snapBytes = int64(len(raw))
	ds.pending = nil
	// Reset the log in place; a failure here costs disk, not correctness —
	// logBytes keeps tracking the file's true length either way (it is the
	// rollback point of the next append, so it must never exceed the file).
	if err := ds.log.Truncate(0); err == nil {
		ds.logBytes = 0
	}
	return nil
}

// Delete tombstones and removes the dataset at hash: the tombstone record
// is fsync'd before the directory goes, so a crash mid-removal finishes
// the job on the next Open instead of resurrecting half a dataset.
func (s *Store) Delete(hash string) (bool, error) {
	ds, ok := s.lookup(hash)
	if !ok {
		return false, nil
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.deleted || ds.curHash != hash {
		return false, nil
	}
	if ds.failed {
		return false, ErrLogDiverged
	}
	if err := ds.tombstoneLocked(); err != nil {
		return false, err
	}
	s.mu.Lock()
	delete(s.byHash, hash)
	s.mu.Unlock()
	if err := os.RemoveAll(ds.dir); err != nil {
		return true, fmt.Errorf("store: removing %s: %w", ds.dir, err)
	}
	return true, nil
}

// tombstoneLocked appends the tombstone record (fsync'd) and marks the
// dataset deleted; its directory may go after that, since a crash before
// the removal finishes it on the next Open. Caller holds ds.mu.
func (ds *dataset) tombstoneLocked() error {
	payload, err := json.Marshal(logRecord{Seq: ds.seq + 1, Op: opTombstone})
	if err != nil {
		return err
	}
	if _, err := appendRecord(ds.log, payload, ds.logBytes); err != nil {
		if errors.Is(err, ErrLogDiverged) {
			ds.failed = true
		}
		return err
	}
	ds.deleted = true
	ds.closeLocked()
	return nil
}

// retireLocked tombstones and removes a dataset the index does not hold:
// one whose content another dataset holds. Caller holds ds.mu. It is best
// effort: a directory it leaves replays to that content on the next Open,
// which retires it then.
func (ds *dataset) retireLocked() {
	if ds.tombstoneLocked() == nil {
		os.RemoveAll(ds.dir)
	}
}

// Dataset returns the current rankings and names of the dataset at hash.
// The returned dataset shares its (immutable) rankings with the store; the
// caller must not mutate them.
func (s *Store) Dataset(hash string) (*rankings.Dataset, []string, error) {
	ds, ok := s.lookup(hash)
	if !ok {
		return nil, nil, ErrNotFound
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.deleted || ds.curHash != hash {
		return nil, nil, ErrStaleHash
	}
	return ds.cur, ds.names, nil
}

// Rebuild reconstructs the session of the dataset at hash: the base
// snapshot's pair matrix is built once, then every pending log record
// replays through the session's O(n²) delta path — the exact code a live
// PATCH runs, so the reconstructed matrix is byte-identical to what the
// original process held (and Pairs.Equal to a fresh build of the final
// dataset). The replay is counted and timed in Stats.
func (s *Store) Rebuild(hash string) (*rankagg.Session, []string, error) {
	return rebuild(s, hash, func(base *rankings.Dataset) (*rankagg.Session, error) {
		sess, err := rankagg.NewSession(base, rankagg.WithMatrixMode(s.matrixMode))
		if err == nil {
			sess.Pairs()
		}
		return sess, err
	})
}

// RebuildApprox reconstructs the approximation-tier session of the dataset
// at hash: an ApproxSession over the base snapshot (no pair matrix — the
// incremental Lehmer/score state builds lazily on the first Run), with
// every pending log record replayed through ApproxSession.ApplyDelta — the
// exact code a live approx PATCH runs, so partial added rankings replay on
// toplists datasets where Rebuild's matrix session would reject them. The
// replay is counted and timed in Stats alongside matrix rebuilds.
func (s *Store) RebuildApprox(hash string) (*rankagg.ApproxSession, []string, error) {
	return rebuild(s, hash, func(base *rankings.Dataset) (*rankagg.ApproxSession, error) {
		return rankagg.NewApproxSession(base)
	})
}

// replayable is what a rebuild needs of either tier's session.
type replayable interface {
	ApplyDelta(add, remove []*rankings.Ranking) error
	Hash() string
}

// rebuild is the body of Rebuild and RebuildApprox: open a session over
// the base snapshot, replay the pending log records through its ApplyDelta,
// and check it lands on hash.
func rebuild[S replayable](s *Store, hash string, open func(*rankings.Dataset) (S, error)) (S, []string, error) {
	var none S
	ds, ok := s.lookup(hash)
	if !ok {
		return none, nil, ErrNotFound
	}
	ds.mu.Lock()
	if ds.deleted || ds.curHash != hash {
		ds.mu.Unlock()
		return none, nil, ErrStaleHash
	}
	base := ds.base
	names := ds.names
	pending := append([]logRecord(nil), ds.pending...)
	ds.mu.Unlock()

	// The session build (O(m·n²) for a matrix) and the replay run outside
	// every lock; the state captured above is immutable (mutations replace
	// the slices, never modify them).
	start := time.Now()
	sess, err := open(base)
	if err != nil {
		return none, nil, fmt.Errorf("store: rebuilding %s: %w", hash, err)
	}
	for _, rec := range pending {
		if err := sess.ApplyDelta(rec.Add, rec.Remove); err != nil {
			return none, nil, fmt.Errorf("store: replaying %s (seq %d): %w", hash, rec.Seq, err)
		}
	}
	if got := sess.Hash(); got != hash {
		return none, nil, fmt.Errorf("store: replay of %s reconstructed hash %s (%w)", hash, got, ErrStaleHash)
	}
	s.replays.Add(1)
	s.replayNanos.Add(time.Since(start).Nanoseconds())
	return sess, names, nil
}

// SaveConsensus persists one spec-keyed result for the dataset currently
// at hash, spending the warm hint (a stored entry supersedes it — the hint
// seeds exactly one solve). A result for a rotated-away hash is dropped
// silently: it raced a PATCH and describes a dataset state the store no
// longer serves.
func (s *Store) SaveConsensus(hash, specKey string, res *ResultWire) {
	if res == nil {
		return
	}
	ds, ok := s.lookup(hash)
	if !ok {
		return
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.deleted || ds.curHash != hash {
		return
	}
	if ds.consensus.Entries == nil {
		ds.consensus.Entries = make(map[string]*ResultWire)
	}
	ds.consensus.Hash = hash
	ds.consensus.Entries[specKey] = res
	ds.consensus.Warm = nil
	ds.writeConsensusLocked()
}

// Consensus returns the persisted entries and warm hint of the dataset at
// hash, plus its mutation version (what a preloading consensus cache
// stamps the entries with).
func (s *Store) Consensus(hash string) (entries map[string]*ResultWire, warm *ResultWire, version uint64, ok bool) {
	ds, found := s.lookup(hash)
	if !found {
		return nil, nil, 0, false
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.deleted || ds.curHash != hash {
		return nil, nil, 0, false
	}
	if len(ds.consensus.Entries) > 0 {
		entries = make(map[string]*ResultWire, len(ds.consensus.Entries))
		for k, v := range ds.consensus.Entries {
			entries[k] = v
		}
	}
	return entries, ds.consensus.Warm, ds.version, true
}

func (ds *dataset) writeConsensusLocked() {
	data, err := json.Marshal(ds.consensus)
	if err != nil {
		return
	}
	// Best-effort: losing a consensus entry to an I/O error costs a
	// re-solve after the next restart, nothing more.
	writeFileSync(filepath.Join(ds.dir, consensusName), data)
}

// Info returns the metadata of the dataset at hash.
func (s *Store) Info(hash string) (DatasetInfo, bool) {
	ds, ok := s.lookup(hash)
	if !ok {
		return DatasetInfo{}, false
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.deleted || ds.curHash != hash {
		return DatasetInfo{}, false
	}
	return ds.infoLocked(), true
}

func (ds *dataset) infoLocked() DatasetInfo {
	return DatasetInfo{
		Hash:       ds.curHash,
		N:          ds.cur.N,
		M:          len(ds.cur.Rankings),
		Version:    ds.version,
		LogRecords: len(ds.pending),
		Bytes:      ds.snapBytes + ds.logBytes,
	}
}

// List returns every persisted dataset's metadata, unordered.
func (s *Store) List() []DatasetInfo {
	s.mu.Lock()
	all := make([]*dataset, 0, len(s.byHash))
	for _, ds := range s.byHash {
		all = append(all, ds)
	}
	s.mu.Unlock()
	out := make([]DatasetInfo, 0, len(all))
	for _, ds := range all {
		ds.mu.Lock()
		if !ds.deleted {
			out = append(out, ds.infoLocked())
		}
		ds.mu.Unlock()
	}
	return out
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Replays:       s.replays.Load(),
		ReplaySeconds: float64(s.replayNanos.Load()) / 1e9,
		Compactions:   s.compactions.Load(),
		Truncations:   s.truncations.Load(),
	}
	for _, info := range s.List() {
		st.Datasets++
		st.LogRecords += info.LogRecords
		st.Bytes += info.Bytes
	}
	return st
}
