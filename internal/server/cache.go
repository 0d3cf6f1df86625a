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
	capacity  int
	ll        *list.List // front = most recently used
	byKey     map[string]*list.Element
	hits      uint64
	misses    uint64
	stores    uint64
	evictions uint64

	snapCap       int
	snapLL        *list.List
	snapByKey     map[string]*list.Element
	snapHits      uint64
	snapMisses    uint64
	snapStores    uint64
	snapEvictions uint64
}

type cacheEntry struct {
	key string
	res experiment.Result
}

type snapCacheEntry struct {
	key  string
	blob []byte
}

// NewCache returns an empty cache bounded to capacity result entries
// (minimum 1) and DefaultSnapshotCapacity snapshot entries.
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity:  capacity,
		ll:        list.New(),
		byKey:     map[string]*list.Element{},
		snapCap:   DefaultSnapshotCapacity,
		snapLL:    list.New(),
		snapByKey: map[string]*list.Element{},
	}
}

// SetSnapshotCapacity rebounds the snapshot tier (minimum 1), evicting
// immediately if the tier is over the new bound.
func (c *Cache) SetSnapshotCapacity(n int) {
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snapCap = n
	c.evictSnapshots()
}

// GetSnapshot returns the cached warm-checkpoint blob for key, marking it
// most recently used. Callers must not mutate the returned blob.
func (c *Cache) GetSnapshot(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.snapByKey[key]
	if !ok {
		c.snapMisses++
		return nil, false
	}
	c.snapHits++
	c.snapLL.MoveToFront(el)
	return el.Value.(*snapCacheEntry).blob, true
}

// PutSnapshot stores a warm-checkpoint blob under key, evicting the least
// recently used snapshot when the tier is full.
func (c *Cache) PutSnapshot(key string, blob []byte) {
	c.putSnapshot(key, blob, true)
}

func (c *Cache) putSnapshot(key string, blob []byte, countStore bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if countStore {
		c.snapStores++
	}
	if el, ok := c.snapByKey[key]; ok {
		el.Value.(*snapCacheEntry).blob = blob
		c.snapLL.MoveToFront(el)
		return
	}
	c.snapByKey[key] = c.snapLL.PushFront(&snapCacheEntry{key: key, blob: blob})
	c.evictSnapshots()
}

// evictSnapshots trims the snapshot tier to its bound; callers hold c.mu.
func (c *Cache) evictSnapshots() {
	for c.snapLL.Len() > c.snapCap {
		oldest := c.snapLL.Back()
		c.snapLL.Remove(oldest)
		delete(c.snapByKey, oldest.Value.(*snapCacheEntry).key)
		c.snapEvictions++
	}
}

// Get returns the cached result for key, marking it most recently used.
func (c *Cache) Get(key string) (experiment.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return experiment.Result{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Put stores a result under key, evicting the least recently used entry
// when full. Storing an existing key refreshes its value and recency.
func (c *Cache) Put(key string, r experiment.Result) {
	c.put(key, r, true)
}

func (c *Cache) put(key string, r experiment.Result, countStore bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if countStore {
		c.stores++
	}
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).res = r
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, res: r})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Stores:    c.stores,
		Evictions: c.evictions,

		SnapshotEntries:   c.snapLL.Len(),
		SnapshotCapacity:  c.snapCap,
		SnapshotHits:      c.snapHits,
		SnapshotMisses:    c.snapMisses,
		SnapshotStores:    c.snapStores,
		SnapshotEvictions: c.snapEvictions,
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
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		// The key suffix is reconstructible from the result; only the
		// fingerprint prefix needs storing.
		fp := e.key[:len(e.key)-len(e.res.Key())-1]
		res := e.res
		f.Entries = append(f.Entries, persistedEntry{Tier: TierResult, Fingerprint: fp, Result: &res})
	}
	for el := c.snapLL.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*snapCacheEntry)
		f.Entries = append(f.Entries, persistedEntry{Tier: TierSnapshot, Key: e.key, Blob: e.blob})
	}
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
	for i, e := range f.Entries {
		switch e.Tier {
		case "", TierResult:
			if e.Result == nil {
				return 0, fmt.Errorf("server: cache file %s entry %d: result tier without a result", path, i)
			}
			// Loads do not count as stores: stats reflect live traffic only.
			c.put(e.Fingerprint+"/"+e.Result.Key(), *e.Result, false)
		case TierSnapshot:
			if e.Key == "" {
				return 0, fmt.Errorf("server: cache file %s entry %d: snapshot tier without a key", path, i)
			}
			c.putSnapshot(e.Key, e.Blob, false)
		default:
			return 0, fmt.Errorf("server: cache file %s entry %d has unknown artifact tier %q (known: %q, %q); refusing to load a future schema partially", path, i, e.Tier, TierResult, TierSnapshot)
		}
	}
	return len(f.Entries), nil
}
