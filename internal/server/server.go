package server

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"smtfetch/internal/config"
	"smtfetch/internal/core"
	"smtfetch/internal/experiment"
	"smtfetch/internal/flight"
)

// SweepRequest is the JSON body of POST /sweep. Axis fields carry the
// same spellings as the CLI flags (engine and POLICY.T.W names); empty
// axes take the same paper defaults as the CLI. Phase lengths of zero
// take the smtfetch defaults, and are part of the cache fingerprint.
type SweepRequest struct {
	Engines   []string `json:"engines,omitempty"`
	Policies  []string `json:"policies,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	Seeds     []uint64 `json:"seeds,omitempty"`

	WarmupInstrs  uint64 `json:"warmup_instrs,omitempty"`
	WarmupCycles  uint64 `json:"warmup_cycles,omitempty"`
	MeasureInstrs uint64 `json:"measure_instrs,omitempty"`
	MaxCycles     uint64 `json:"max_cycles,omitempty"`

	// Sample is smtfetch's "detail:N,skip:M" sampled-measurement spec.
	Sample string `json:"sample,omitempty"`
	// WarmFork selects warm-checkpoint sharing ("fork" or "rerun"); see
	// experiment.Sweep.WarmFork. In fork mode the server backs the
	// checkpoints with its snapshot cache tier.
	WarmFork string `json:"warm_fork,omitempty"`

	// Async forces job mode even for grids under the sync cell limit.
	Async bool `json:"async,omitempty"`
}

// MaxGridCells caps the grid a sweep request may span. A body under the
// size cap can still list about 10⁵ seeds; the cap is checked on the axis
// lengths, before the grid is expanded, so such a request costs nothing.
const MaxGridCells = 1 << 16

// Sweep converts the request into an experiment grid, resolving the
// engine and policy spellings and rejecting a grid over MaxGridCells. The
// server's worker-pool bound is applied by the caller, not the request:
// clients don't control server load.
func (r SweepRequest) Sweep() (*experiment.Sweep, error) {
	sw := &experiment.Sweep{
		Workloads:     r.Workloads,
		Seeds:         r.Seeds,
		WarmupInstrs:  r.WarmupInstrs,
		WarmupCycles:  r.WarmupCycles,
		MeasureInstrs: r.MeasureInstrs,
		MaxCycles:     r.MaxCycles,
		Sample:        r.Sample,
		WarmFork:      r.WarmFork,
	}
	for _, s := range r.Engines {
		e, err := config.ParseEngine(s)
		if err != nil {
			return nil, err
		}
		sw.Engines = append(sw.Engines, e)
	}
	for _, s := range r.Policies {
		p, err := config.ParseFetchPolicy(s)
		if err != nil {
			return nil, err
		}
		sw.Policies = append(sw.Policies, p)
	}
	if n := sw.GridSize(); n > MaxGridCells {
		return nil, fmt.Errorf("grid spans %d cells, over the %d-cell cap (MaxGridCells); split it into smaller requests", n, MaxGridCells)
	}
	return sw, nil
}

// NewSweepRequest phrases a sweep as a request, the inverse of
// SweepRequest.Sweep. Execution mechanics (Jobs, OnResult,
// SnapshotSource) stay local. A sweep a request cannot carry — a machine
// override or a cell filter — is an error rather than a silently
// different grid.
func NewSweepRequest(sw *experiment.Sweep) (SweepRequest, error) {
	if sw.Machine != nil {
		return SweepRequest{}, errors.New("server: a sweep request cannot carry a machine override")
	}
	if sw.Filter != nil {
		return SweepRequest{}, errors.New("server: a sweep request cannot carry a cell filter")
	}
	r := SweepRequest{
		Workloads:     sw.Workloads,
		Seeds:         sw.Seeds,
		WarmupInstrs:  sw.WarmupInstrs,
		WarmupCycles:  sw.WarmupCycles,
		MeasureInstrs: sw.MeasureInstrs,
		MaxCycles:     sw.MaxCycles,
		Sample:        sw.Sample,
		WarmFork:      sw.WarmFork,
	}
	for _, e := range sw.Engines {
		r.Engines = append(r.Engines, e.String())
	}
	for _, p := range sw.Policies {
		r.Policies = append(r.Policies, p.String())
	}
	return r, nil
}

// Config configures a Server. The zero value is usable: a 4096-entry
// cache, no persistence, grids up to 16 cells served synchronously.
type Config struct {
	// CacheSize bounds the result cache in entries (<= 0 = 4096).
	CacheSize int
	// CacheFile, when non-empty, is loaded at New and written by
	// SaveCache, so restarts keep warm results.
	CacheFile string
	// SyncCellLimit is the largest grid POST /sweep answers in-request;
	// bigger grids get a job ID and polling (< 0 = everything async,
	// 0 = default 16).
	SyncCellLimit int
	// Jobs bounds each sweep's worker pool; <= 0 means NumCPU.
	Jobs int
	// SnapshotCacheSize bounds the warm-checkpoint cache tier in entries
	// (<= 0 = DefaultSnapshotCapacity). Checkpoints are megabytes each, so
	// this stays far below CacheSize.
	SnapshotCacheSize int
}

// Server is the sweep service: a FrontEnd whose cells are answered from
// the cache, plus
//
//	GET  /results/{key}      fetch one cached cell by content key
//	GET  /cache/stats        cache counter snapshot
//	GET  /identz             worker identity and schema versions
//
// All sweep execution funnels through the cache: a cell whose content
// key is present is served without simulating, and because the simulator
// is deterministic the response is byte-identical either way.
type Server struct {
	front     *FrontEnd
	cache     *Cache
	cacheFile string

	// results and snapshots dedupe concurrent misses on one key across
	// requests: two overlapping grids that miss on a shared cell (or warm
	// checkpoint) build it once, not twice.
	results   flight.Group[experiment.Result]
	snapshots flight.Group[[]byte]
}

// New builds a Server, loading the cache file when one is configured.
func New(cfg Config) (*Server, error) {
	size := cfg.CacheSize
	if size <= 0 {
		size = 4096
	}
	s := &Server{
		cache:     NewCache(size),
		cacheFile: cfg.CacheFile,
	}
	if cfg.SnapshotCacheSize > 0 {
		s.cache.SetSnapshotCapacity(cfg.SnapshotCacheSize)
	}
	if cfg.CacheFile != "" {
		if _, err := s.cache.LoadFile(cfg.CacheFile); err != nil {
			return nil, err
		}
	}
	s.front = NewFrontEnd(cfg.SyncCellLimit, cfg.Jobs, s.source)
	s.front.Handle("/results/", s.handleResult)
	s.front.Handle("/cache/stats", GetJSON(func() any { return s.cache.Stats() }))
	s.front.Handle("/identz", GetJSON(func() any { return Identz() }))
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.front.ServeHTTP(w, r)
}

// WaitJobs blocks until every running async sweep has finished. A
// graceful shutdown calls it after the HTTP listener closes and before
// SaveCache, so in-flight jobs complete and their cells persist instead
// of being killed mid-grid.
func (s *Server) WaitJobs() {
	s.front.WaitJobs()
}

// SaveCache persists the cache to the configured file; a no-op without one.
func (s *Server) SaveCache() error {
	if s.cacheFile == "" {
		return nil
	}
	return s.cache.SaveFile(s.cacheFile)
}

// CacheStats snapshots the result-cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// source answers a request's cells through the cache: hits are served
// without simulating, misses execute on the sweep's worker pool and are
// stored (error cells excepted, so transient failures retry on the next
// request). Warm-fork checkpoints go through the snapshot cache tier, so
// a repeated sweep (or one sharing warm groups with an earlier sweep)
// restores the persisted checkpoint instead of re-simulating the warm-up.
func (s *Server) source(sw *experiment.Sweep, fp string) experiment.ResultSource {
	sw.SnapshotSource = s.resolveSnapshot
	return func(c experiment.Cell) (experiment.Result, bool) {
		if h := testHookCellStart; h != nil {
			h(c)
		}
		return s.resolveKey(CacheKey(fp, c), func() experiment.Result {
			return sw.ExecuteCell(c)
		}), true
	}
}

// resolveSnapshot answers one warm key from the snapshot cache tier,
// building (warming + checkpointing) on a miss. Concurrent misses on the
// same key across overlapping jobs share one build; failed builds are not
// stored, so the next request retries them.
func (s *Server) resolveSnapshot(key string, build func() ([]byte, error)) ([]byte, error) {
	if blob, ok := s.cache.GetSnapshot(key); ok {
		return blob, nil
	}
	return s.snapshots.Do(key, func() ([]byte, error) {
		// A leader that finished between the lookup above and this call
		// has stored the blob already.
		if blob, ok := s.cache.peekSnapshot(key); ok {
			return blob, nil
		}
		blob, err := build()
		if err == nil {
			s.cache.PutSnapshot(key, blob)
		}
		return blob, err
	})
}

// resolveKey answers one content key from the cache, executing exec on a
// miss. Concurrent misses on the same key share one execution, so two
// overlapping grids posted at the same time simulate each shared cell
// once. An error cell is a failed call: its waiters retry rather than
// inherit it, so a transient failure doesn't fan out.
func (s *Server) resolveKey(key string, exec func() experiment.Result) experiment.Result {
	if res, ok := s.cache.Get(key); ok {
		return res
	}
	res, _ := s.results.Do(key, func() (experiment.Result, error) {
		// A leader that finished between the lookup above and this call
		// has stored the result already: a late waiter must not execute.
		if res, ok := s.cache.peek(key); ok {
			return res, nil
		}
		res := exec()
		s.storeResult(key, res)
		if res.Error != "" {
			return res, errors.New(res.Error)
		}
		return res, nil
	})
	return res
}

// storeResult caches a completed cell. Error cells are never stored: an
// error's IPC 0 is a failure marker, not a value, and caching it would
// pin a transient failure until eviction instead of retrying it on the
// next request.
func (s *Server) storeResult(key string, res experiment.Result) {
	if res.Error != "" {
		return
	}
	s.cache.Put(key, res)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/results/")
	res, ok := s.cache.Get(key)
	if !ok {
		httpError(w, http.StatusNotFound, "no cached result for key %q", key)
		return
	}
	writeJSONBody(w, http.StatusOK, res)
}

// Identity is the JSON body of GET /identz: what this worker is and which
// schema versions it speaks. The cluster coordinator probes it before
// admitting a worker into the rendezvous ring — merging results from a
// worker with a different result schema would corrupt the merged
// document, so a version mismatch keeps the worker out of rotation.
type Identity struct {
	Service         string `json:"service"`
	ResultSchema    int    `json:"result_schema"`
	CacheSchema     int    `json:"cache_schema"`
	SnapshotVersion int    `json:"snapshot_version"`
}

// ServiceName identifies a sweep worker in GET /identz responses.
const ServiceName = "smtfetch-sweep-worker"

// Identz is the identity this server reports.
func Identz() Identity {
	return Identity{
		Service:         ServiceName,
		ResultSchema:    experiment.SchemaVersion,
		CacheSchema:     CacheSchemaVersion,
		SnapshotVersion: core.SnapshotVersion,
	}
}

// testHookCellStart, when non-nil, is called at the start of every cell
// resolution inside source. Shutdown tests use it to hold a cell (and
// therefore its job) deterministically in flight while they assert the
// drain-then-save ordering; production code never sets it.
var testHookCellStart func(experiment.Cell)
