// Package cache provides the serving layer's caches, keyed on the dataset
// content hash (rankagg.Dataset.Hash).
//
// The two session caches are one generic budgeted LRU, LRU[V],
// instantiated once per tier with the weigher its entries are charged by:
//   - Cache holds *rankagg.Session values weighed by their pair matrix
//     (Session.MatrixBytes), so repeated and concurrent requests over the
//     same dataset share one cached O(m·n²) build instead of paying it per
//     request;
//   - ApproxCache holds the matrix-free tier's *rankagg.ApproxSession
//     values weighed by their O(n + Σ L_i) incremental aggregation state
//     (ApproxSession.StateBytes), so a fixed byte budget holds orders of
//     magnitude more of them. It is what lets PATCH work on datasets only
//     that tier serves, such as toplists datasets.
//
// An LRU bounds both the entry count and the total weight, evicting
// least-recently-used sessions when either budget is exceeded. Lookups of a
// missing key are single-flighted: when two requests race on the first
// query for one dataset, exactly one executes the build function (session
// construction plus, for a Session, the eager matrix build) and both
// receive the same session.
//
// Sessions are dynamic (ApplyDelta), and a mutation rotates the dataset
// content hash, so Mutate re-keys an entry in place: the entry moves from
// the old hash to the new one around the mutation, with its weight re-read
// against the budget. CompactSweep gives back the matrix memory that
// deltas left in a Cache.
//
// ConsensusCache, the tier above the sessions, stores whole aggregation
// results keyed on (dataset hash, run spec).
package cache

import (
	"container/list"
	"sync"

	"rankagg"
)

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups answered by a ready entry.
	Hits int64
	// Misses counts lookups that found no ready entry — including lookups
	// coalesced onto another request's in-flight build (those increment
	// Misses but not Builds).
	Misses int64
	// Builds counts build functions that ran to completion successfully;
	// with single-flighting this is the number of pair matrices actually
	// constructed on behalf of the cache.
	Builds int64
	// Evictions counts entries dropped to satisfy the budgets.
	Evictions int64
	// Rekeys counts entries moved to a new key by Mutate (a PATCHed
	// dataset rotates its content hash).
	Rekeys int64
	// Compactions counts cached matrices re-packed by CompactSweep, and
	// CompactedBytes the total bytes those re-packs gave back.
	Compactions    int64
	CompactedBytes int64
	// Entries and Bytes describe the current cache content.
	Entries int
	Bytes   int64
}

// LRU is a budgeted LRU of sessions of one tier. The zero value is not
// usable; see New and NewApprox. All methods are safe for concurrent use.
type LRU[V any] struct {
	maxEntries int
	maxBytes   int64
	weigh      func(V) int64

	mu           sync.Mutex
	ll           *list.List // front = most recently used
	items        map[string]*list.Element
	flight       map[string]*flightCall[V]
	bytes        int64
	hits         int64
	misses       int64
	builds       int64
	evicted      int64
	rekeys       int64
	compactions  int64
	compactBytes int64
}

// Cache is the exact tier's session cache.
type Cache = LRU[*rankagg.Session]

// ApproxCache is the matrix-free tier's session cache.
type ApproxCache = LRU[*rankagg.ApproxSession]

type entry[V any] struct {
	key   string
	sess  V
	bytes int64
}

// flightCall is one in-flight build; latecomers Wait and then read the
// outcome.
type flightCall[V any] struct {
	wg   sync.WaitGroup
	sess V
	err  error
}

// New returns a cache bounded to maxEntries sessions and maxBytes of
// cached pair-matrix memory. Either bound may be 0 for "unlimited"
// (bounding at least one of them is strongly advised in a server).
func New(maxEntries int, maxBytes int64) *Cache {
	return newLRU(maxEntries, maxBytes, (*rankagg.Session).MatrixBytes)
}

// NewApprox returns an approx-session cache bounded to maxEntries sessions
// and maxBytes of aggregation state (either 0: unlimited).
func NewApprox(maxEntries int, maxBytes int64) *ApproxCache {
	return newLRU(maxEntries, maxBytes, (*rankagg.ApproxSession).StateBytes)
}

func newLRU[V any](maxEntries int, maxBytes int64, weigh func(V) int64) *LRU[V] {
	return &LRU[V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		weigh:      weigh,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		flight:     make(map[string]*flightCall[V]),
	}
}

// GetOrBuild returns the session cached under key, building and inserting
// it via build on a miss. hit reports whether a ready entry answered the
// lookup. Concurrent misses on one key are coalesced: a single build runs
// and every caller receives its outcome (an error is returned to all
// waiters and nothing is cached).
//
// A Session's build should return it with its pair matrix already built
// (call Session.Pairs() before returning) so the entry's byte weight is
// final on insertion and later requests never pay the build.
func (c *LRU[V]) GetOrBuild(key string, build func() (V, error)) (sess V, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*entry[V]).sess, true, nil
	}
	c.misses++
	if fc, ok := c.flight[key]; ok {
		c.mu.Unlock()
		fc.wg.Wait()
		return fc.sess, false, fc.err
	}
	fc := &flightCall[V]{}
	fc.wg.Add(1)
	c.flight[key] = fc
	c.mu.Unlock()

	sess, err = build()

	c.mu.Lock()
	delete(c.flight, key)
	if err == nil {
		c.builds++
		c.insertLocked(key, sess)
	}
	c.mu.Unlock()
	fc.sess, fc.err = sess, err
	fc.wg.Done()
	return sess, false, err
}

// Mutate looks up the session cached under oldKey and re-keys its entry
// in place around a caller-supplied mutation: the entry is detached under
// the cache lock, mutate runs outside it (session mutation is O(n²)
// compute and must not block the cache), and the entry is re-inserted
// under the new key mutate returns, with its weight re-read (a delta can
// promote a matrix backend, or grow a dataset and drop a diverged Lehmer
// state, so the weight moves in either direction). found reports whether
// oldKey held a ready entry; when false, nothing ran.
//
// Detaching gives the mutation exclusive ownership of the ENTRY — a
// concurrent Mutate of the same key misses, and a concurrent GetOrBuild
// of oldKey rebuilds the pre-mutation dataset from scratch instead of
// receiving a session that no longer matches the key. The *session* stays
// shared: requests that fetched it earlier keep running on their
// copy-on-write snapshots. When mutate fails, the untouched entry is
// restored under oldKey (unless a concurrent rebuild got there first,
// in which case that fresher entry wins).
func (c *LRU[V]) Mutate(oldKey string, mutate func(V) (newKey string, err error)) (sess V, newKey string, found bool, err error) {
	c.mu.Lock()
	el, ok := c.items[oldKey]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return sess, "", false, nil
	}
	c.hits++
	e := el.Value.(*entry[V])
	c.removeLocked(el)
	c.mu.Unlock()

	newKey, err = mutate(e.sess)

	c.mu.Lock()
	if err != nil {
		c.insertLocked(oldKey, e.sess)
		c.mu.Unlock()
		return e.sess, "", true, err
	}
	c.rekeys++
	c.insertLocked(newKey, e.sess)
	c.mu.Unlock()
	return e.sess, newKey, true, nil
}

// CompactSweep re-packs every cached session's pair matrix into its
// leanest layout (Session.CompactMatrix) and re-accounts the byte budget,
// returning how many matrices shrank and the bytes reclaimed. Deltas only
// promote representations, so after a burst of PATCH traffic the cache can
// hold matrices several times their minimal size; the serving layer runs
// this sweep when the server is idle (Server.StartCompactor).
//
// Each O(n²) re-pack runs outside the cache lock against the session's own
// copy-on-write snapshot; the sweep then re-reads MatrixBytes under the
// lock for entries still cached under the same key with the same session.
// Entries evicted, re-keyed or rebuilt mid-sweep are simply skipped — the
// sweep is best-effort and never blocks serving. LRU order is untouched:
// compaction is maintenance, not a use.
func CompactSweep(c *Cache) (compacted int, reclaimed int64) {
	c.mu.Lock()
	entries := make([]entry[*rankagg.Session], 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		entries = append(entries, *el.Value.(*entry[*rankagg.Session]))
	}
	c.mu.Unlock()

	for _, ce := range entries {
		freed := ce.sess.CompactMatrix()
		if freed <= 0 {
			continue
		}
		c.mu.Lock()
		if el, ok := c.items[ce.key]; ok {
			if e := el.Value.(*entry[*rankagg.Session]); e.sess == ce.sess {
				nb := ce.sess.MatrixBytes()
				c.bytes += nb - e.bytes
				e.bytes = nb
				compacted++
				reclaimed += freed
				c.compactions++
				c.compactBytes += freed
			}
		}
		c.mu.Unlock()
	}
	return compacted, reclaimed
}

// Peek returns the session cached under key without touching LRU order or
// the hit/miss counters — pure introspection (the GET /v1/datasets/{hash}
// endpoint), so reading metadata never perturbs eviction or the metrics
// smoke asserts on.
func (c *LRU[V]) Peek(key string) (sess V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return sess, false
	}
	return el.Value.(*entry[V]).sess, true
}

// Remove drops the entry cached under key (the DELETE /v1/datasets/{hash}
// eviction), reporting whether one was held. Requests that already fetched
// the session keep running on their copy-on-write snapshots; removal only
// stops future lookups from finding it.
func (c *LRU[V]) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.removeLocked(el)
	return true
}

// Keys returns the cached dataset hashes in most-recently-used order —
// the session-cache half of the GET /v1/datasets listing (datasets that
// exist only as cache entries, with no persisted counterpart).
func (c *LRU[V]) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[V]).key)
	}
	return keys
}

// Get returns the session cached under key without building on a miss.
func (c *LRU[V]) Get(key string) (sess V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return sess, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*entry[V]).sess, true
}

// insertLocked adds a fresh entry at the MRU position and evicts from the
// LRU end until both budgets hold. The just-inserted entry is never
// evicted — a dataset too large for the byte budget still serves the
// requests that are hot right now and goes first when something newer
// arrives.
func (c *LRU[V]) insertLocked(key string, sess V) {
	// A duplicate key is unreachable from GetOrBuild (single-flight), but
	// Mutate inserts without a flight and can collide with a concurrent
	// rebuild: its error path restores oldKey after a GetOrBuild re-built
	// it, and its success path lands on newKey just as a full POST of the
	// same mutated dataset finishes building. Keeping the existing entry
	// is load-bearing for Mutate — the fresher entry wins, the detached
	// session is simply not re-cached.
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	e := &entry[V]{key: key, sess: sess, bytes: c.weigh(sess)}
	el := c.ll.PushFront(e)
	c.items[key] = el
	c.bytes += e.bytes
	for c.overBudgetLocked() {
		back := c.ll.Back()
		if back == nil || back == el {
			break
		}
		c.removeLocked(back)
		c.evicted++
	}
}

func (c *LRU[V]) overBudgetLocked() bool {
	return (c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes)
}

func (c *LRU[V]) removeLocked(el *list.Element) {
	e := el.Value.(*entry[V])
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.bytes
}

// Len returns the number of cached sessions.
func (c *LRU[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the total weight currently cached: matrix bytes in a
// Cache, aggregation-state bytes in an ApproxCache.
func (c *LRU[V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns a snapshot of the counters (the compaction counters stay 0
// in an ApproxCache: approx state has no compact sweep, deltas shrink it
// directly).
func (c *LRU[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:           c.hits,
		Misses:         c.misses,
		Builds:         c.builds,
		Evictions:      c.evicted,
		Rekeys:         c.rekeys,
		Compactions:    c.compactions,
		CompactedBytes: c.compactBytes,
		Entries:        c.ll.Len(),
		Bytes:          c.bytes,
	}
}
