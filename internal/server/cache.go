// Package server turns the sweep harness into a long-running HTTP service:
// it accepts sweep requests as JSON, expands and validates them with the
// experiment machinery, executes cells on the bounded worker pool, and
// memoizes every completed cell in a content-keyed result cache so a
// repeated or overlapping grid is served without re-simulating.
//
// The cache key is the pair (sweep fingerprint, cell key). The cell key is
// already content-derived (workload/engine/policy/seed) and the simulator
// is deterministic, so two requests that agree on the fingerprint — the
// hash of the sweep's key document (experiment.Sweep.KeyDoc) — must produce
// bit-identical results for a shared cell. That makes cache hits
// indistinguishable from re-execution, byte for byte.
package server

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"smtfetch/internal/experiment"
)

// Fingerprint is the result-cache half of a cell's content key: the hash
// of the sweep's key document (experiment.Sweep.KeyDoc), which holds
// everything besides the cell identity that determines a cell's result.
// Sweeps with equal fingerprints may share cached cells.
func Fingerprint(s *experiment.Sweep) string {
	return s.KeyDoc().Hash()
}

// CacheKey is the full content key of one cached cell.
func CacheKey(fingerprint string, c experiment.Cell) string {
	return fingerprint + "/" + c.Key()
}

// CacheStats is the counter snapshot served by GET /cache/stats. The
// snapshot_* counters cover the warm-checkpoint artifact tier; the rest
// cover the result tier.
//
// Concurrent misses on one key share one build, and a caller that waited
// for it counts a miss and no hit, so under overlapping requests misses
// can exceed stores; sequential traffic sees one miss per store.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Stores    uint64 `json:"stores"`
	Evictions uint64 `json:"evictions"`

	SnapshotEntries   int    `json:"snapshot_entries"`
	SnapshotCapacity  int    `json:"snapshot_capacity"`
	SnapshotHits      uint64 `json:"snapshot_hits"`
	SnapshotMisses    uint64 `json:"snapshot_misses"`
	SnapshotStores    uint64 `json:"snapshot_stores"`
	SnapshotEvictions uint64 `json:"snapshot_evictions"`
}

// DefaultSnapshotCapacity bounds the snapshot tier when the owner does not
// call SetSnapshotCapacity. Snapshot blobs are megabytes, not bytes, so
// the bound is far below the result tier's.
const DefaultSnapshotCapacity = 64

// Cache is a bounded two-tier LRU, safe for concurrent use. The result
// tier holds completed sweep cells keyed by CacheKey(fingerprint, cell);
// the snapshot tier holds warm-checkpoint blobs (core.Sim.Snapshot
// artifacts) keyed by experiment warm keys, letting repeated sweeps skip
// the warm-up phase entirely in warm-fork mode.
type Cache struct {
	mu        sync.Mutex
	results   *lru[experiment.Result]
	snapshots *lru[[]byte]
}

// NewCache returns an empty cache bounded to capacity result entries
// (minimum 1) and DefaultSnapshotCapacity snapshot entries.
func NewCache(capacity int) *Cache {
	return &Cache{
		results:   newLRU[experiment.Result](capacity),
		snapshots: newLRU[[]byte](DefaultSnapshotCapacity),
	}
}

// SetSnapshotCapacity rebounds the snapshot tier (minimum 1), evicting
// immediately if the tier is over the new bound.
func (c *Cache) SetSnapshotCapacity(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snapshots.setCapacity(n)
}

// GetSnapshot returns the cached warm-checkpoint blob for key, marking it
// most recently used. Callers must not mutate the returned blob.
func (c *Cache) GetSnapshot(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshots.get(key)
}

// PutSnapshot stores a warm-checkpoint blob under key, evicting the least
// recently used snapshot when the tier is full.
func (c *Cache) PutSnapshot(key string, blob []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snapshots.put(key, blob, true)
}

// Get returns the cached result for key, marking it most recently used.
func (c *Cache) Get(key string) (experiment.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.results.get(key)
}

// Put stores a result under key, evicting the least recently used entry
// when full. Storing an existing key refreshes its value and recency.
func (c *Cache) Put(key string, r experiment.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results.put(key, r, true)
}

// peek and peekSnapshot look a key up without counting a hit or a miss
// and without changing recency: the re-check a single-flight leader
// makes after its counted lookup missed.
func (c *Cache) peek(key string) (experiment.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.results.peek(key)
}

func (c *Cache) peekSnapshot(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshots.peek(key)
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, s := c.results, c.snapshots
	return CacheStats{
		Entries:   r.ll.Len(),
		Capacity:  r.capacity,
		Hits:      r.hits,
		Misses:    r.misses,
		Stores:    r.stores,
		Evictions: r.evictions,

		SnapshotEntries:   s.ll.Len(),
		SnapshotCapacity:  s.capacity,
		SnapshotHits:      s.hits,
		SnapshotMisses:    s.misses,
		SnapshotStores:    s.stores,
		SnapshotEvictions: s.evictions,
	}
}

// lru is one cache tier: a bounded least-recently-used map with its
// hit/miss/store/eviction counters. It is not safe for concurrent use;
// Cache guards both tiers with one mutex.
type lru[V any] struct {
	capacity int
	ll       *list.List // of *lruEntry[V]; front = most recently used
	byKey    map[string]*list.Element

	hits, misses, stores, evictions uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	l := &lru[V]{ll: list.New(), byKey: map[string]*list.Element{}}
	l.setCapacity(capacity)
	return l
}

// setCapacity rebounds the tier (minimum 1), evicting down to it.
func (l *lru[V]) setCapacity(n int) {
	l.capacity = max(n, 1)
	l.evict()
}

func (l *lru[V]) peek(key string) (V, bool) {
	if el, ok := l.byKey[key]; ok {
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

func (l *lru[V]) get(key string) (V, bool) {
	el, ok := l.byKey[key]
	if !ok {
		l.misses++
		var zero V
		return zero, false
	}
	l.hits++
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores val under key as the most recently used entry. Loads from a
// file pass countStore false: stats reflect live traffic only.
func (l *lru[V]) put(key string, val V, countStore bool) {
	if countStore {
		l.stores++
	}
	if el, ok := l.byKey[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		l.ll.MoveToFront(el)
		return
	}
	l.byKey[key] = l.ll.PushFront(&lruEntry[V]{key: key, val: val})
	l.evict()
}

func (l *lru[V]) evict() {
	for l.ll.Len() > l.capacity {
		oldest := l.ll.Back()
		l.ll.Remove(oldest)
		delete(l.byKey, oldest.Value.(*lruEntry[V]).key)
		l.evictions++
	}
}

// oldestFirst calls fn on every entry, least recently used first.
func (l *lru[V]) oldestFirst(fn func(key string, val V)) {
	for el := l.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*lruEntry[V])
		fn(e.key, e.val)
	}
}

// CacheSchemaVersion versions the on-disk cache snapshot. Version 2 adds
// the entry tier: "result" entries reuse the experiment.Result schema that
// WriteJSON emits (so a result round-trips the disk byte-identically), and
// "snapshot" entries carry base64 warm-checkpoint blobs under their warm
// key. Version 1 files (untiered, results only) still load.
const CacheSchemaVersion = 2

// cacheFile is the persistence envelope: one entry per cached artifact,
// per tier in LRU order (least recently used first) so a reload
// reconstructs recency.
type cacheFile struct {
	SchemaVersion int              `json:"schema_version"`
	Entries       []persistedEntry `json:"entries"`
}

// persistedEntry is one cached artifact. Tier selects which fields are
// meaningful: "result" (or empty, the version-1 spelling) uses
// Fingerprint+Result, "snapshot" uses Key+Blob. Unknown tiers are a load
// error — a file written by a future schema must fail loudly, not load as
// an empty-looking result.
type persistedEntry struct {
	Tier        string             `json:"tier,omitempty"`
	Fingerprint string             `json:"fingerprint,omitempty"`
	Result      *experiment.Result `json:"result,omitempty"`
	Key         string             `json:"key,omitempty"`
	Blob        []byte             `json:"blob,omitempty"`
}

// Artifact tier names in persisted cache files.
const (
	TierResult   = "result"
	TierSnapshot = "snapshot"
)

// SaveFile atomically writes both cache tiers to path (tmp + rename).
func (c *Cache) SaveFile(path string) error {
	c.mu.Lock()
	f := cacheFile{SchemaVersion: CacheSchemaVersion}
	c.results.oldestFirst(func(key string, res experiment.Result) {
		// The key suffix is reconstructible from the result; only the
		// fingerprint prefix needs storing.
		fp := key[:len(key)-len(res.Key())-1]
		f.Entries = append(f.Entries, persistedEntry{Tier: TierResult, Fingerprint: fp, Result: &res})
	})
	c.snapshots.oldestFirst(func(key string, blob []byte) {
		f.Entries = append(f.Entries, persistedEntry{Tier: TierSnapshot, Key: key, Blob: blob})
	})
	c.mu.Unlock()

	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("server: marshal cache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".cache-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(blob, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFile merges a snapshot written by SaveFile into the cache, returning
// the number of entries loaded. A missing file is not an error (0, nil):
// a fresh server simply starts cold.
func (c *Cache) LoadFile(path string) (int, error) {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var f cacheFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return 0, fmt.Errorf("server: bad cache file %s: %w", path, err)
	}
	// Version 1 is version 2 minus tiers: every entry is an implicit
	// result. Anything newer (or older) is rejected.
	if f.SchemaVersion != CacheSchemaVersion && f.SchemaVersion != 1 {
		return 0, fmt.Errorf("server: cache file %s has schema version %d, want %d", path, f.SchemaVersion, CacheSchemaVersion)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range f.Entries {
		switch e.Tier {
		case "", TierResult:
			if e.Result == nil {
				return 0, fmt.Errorf("server: cache file %s entry %d: result tier without a result", path, i)
			}
			c.results.put(e.Fingerprint+"/"+e.Result.Key(), *e.Result, false)
		case TierSnapshot:
			if e.Key == "" {
				return 0, fmt.Errorf("server: cache file %s entry %d: snapshot tier without a key", path, i)
			}
			c.snapshots.put(e.Key, e.Blob, false)
		default:
			return 0, fmt.Errorf("server: cache file %s entry %d has unknown artifact tier %q (known: %q, %q); refusing to load a future schema partially", path, i, e.Tier, TierResult, TierSnapshot)
		}
	}
	return len(f.Entries), nil
}
