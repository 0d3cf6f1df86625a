// Package cluster turns a fleet of sweep servers into one service. A
// Coordinator speaks the same HTTP protocol as a single smtfetch sweep
// server (POST /sweep, GET /jobs/{id}, GET /healthz), so `sweep -server`
// clients cannot tell the difference — but instead of simulating cells
// itself it shards them across worker servers by rendezvous (highest-
// random-weight) hashing of the cell's content key and merges the worker
// results back into one canonical results document.
//
// The design leans entirely on the determinism guarantee the workers
// already provide: equal content key ⇒ byte-identical result. That makes
// workers freely interchangeable — any worker may execute any cell and
// the merged document is byte-identical to a local `smtfetch sweep` run —
// so distribution is pure routing: no consensus, no result reconciliation,
// no coordinator-side cache. Failure handling is correspondingly simple:
// a cell dispatched to a dead, hung, or erroring worker is re-dispatched
// to the next worker in rendezvous order, and the worst a failure can
// cost is one extra simulation of one cell.
package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"smtfetch/internal/experiment"
	"smtfetch/internal/flight"
	"smtfetch/internal/server"
)

// Config configures a Coordinator.
type Config struct {
	// Workers are the base URLs of the sweep servers to shard across
	// (e.g. "http://10.0.0.1:8080"). At least one is required.
	Workers []string
	// HTTPClient is used for all worker traffic (dispatch and probes).
	// Nil gets a dedicated client with a 5-minute overall timeout. Tests
	// inject a client wrapping the fault-injection transport here.
	HTTPClient *http.Client
	// SyncCellLimit is the largest grid POST /sweep answers in-request
	// (streamed); bigger grids get a job ID and polling (< 0 =
	// everything async, 0 = default 16).
	SyncCellLimit int
	// Jobs bounds concurrent cell dispatches across the fleet
	// (<= 0 = 4 × len(Workers)). The streamed merge holds at most 2 × Jobs
	// results in flight or ahead of the canonical write position.
	Jobs int
	// PollInterval is handed to the per-worker clients for async-job
	// polling (0 = 200ms). Single-cell dispatches are normally answered
	// synchronously; this only matters for workers running -sync-limit -1.
	PollInterval time.Duration
	// ProbeInterval is the health-probe period for Start (0 = 5s). It is
	// also the base of the dead-worker probe backoff: after n consecutive
	// failures a worker is probed no sooner than ProbeInterval×2^(n-1),
	// capped at one minute.
	ProbeInterval time.Duration
	// Now replaces time.Now for backoff bookkeeping; tests inject a fake
	// clock to pin the schedule. Nil means time.Now.
	Now func() time.Time
}

// probeBackoffMax caps the dead-worker probe backoff.
const probeBackoffMax = time.Minute

// Coordinator is the cluster front end: a server.FrontEnd whose cells are
// dispatched across the fleet, plus
//
//	GET  /cluster/stats      per-worker health and dispatch counters
type Coordinator struct {
	front     *server.FrontEnd
	workers   []*worker
	httpc     *http.Client
	probeBase time.Duration
	now       func() time.Time

	stopOnce sync.Once
	stop     chan struct{}

	// flight allows at most one dispatch per content key anywhere in the
	// fleet at a time. Each worker's own single-flight dedupes misses that
	// reach it; this one stops them from reaching workers (or, after a
	// re-dispatch, *different* workers) at all.
	flight flight.Group[experiment.Result]
}

// New builds a Coordinator over the configured workers. No probing
// happens here: workers start presumed alive and are demoted by dispatch
// failures or probes.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = &http.Client{Timeout: 5 * time.Minute}
	}
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = 4 * len(cfg.Workers)
	}
	poll := cfg.PollInterval
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	probeBase := cfg.ProbeInterval
	if probeBase <= 0 {
		probeBase = 5 * time.Second
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	co := &Coordinator{
		httpc:     httpc,
		probeBase: probeBase,
		now:       now,
		stop:      make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, u := range cfg.Workers {
		u = strings.TrimSuffix(u, "/")
		if u == "" {
			return nil, errors.New("cluster: empty worker URL")
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate worker %s", u)
		}
		seen[u] = true
		co.workers = append(co.workers, &worker{
			url:    u,
			alive:  true,
			client: &server.Client{BaseURL: u, HTTPClient: httpc, PollInterval: poll},
		})
	}
	co.front = server.NewFrontEnd(cfg.SyncCellLimit, jobs, co.source)
	co.front.Handle("/cluster/stats", server.GetJSON(func() any { return co.ClusterStats() }))
	return co, nil
}

func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	co.front.ServeHTTP(w, r)
}

// WaitJobs blocks until every running async sweep has finished, so a
// graceful shutdown drains in-flight grids before the listener dies.
func (co *Coordinator) WaitJobs() {
	co.front.WaitJobs()
}

// source answers a request's cells by dispatching each to the fleet.
// Results come back in completion order; the front end merges them into
// the canonical document.
func (co *Coordinator) source(sw *experiment.Sweep, fp string) experiment.ResultSource {
	return func(c experiment.Cell) (experiment.Result, bool) {
		return co.fetchCell(sw, fp, c), true
	}
}

// WorkerStatus is one worker's entry in GET /cluster/stats.
type WorkerStatus struct {
	URL              string `json:"url"`
	Alive            bool   `json:"alive"`
	ConsecutiveFails int    `json:"consecutive_fails"`
	Dispatched       uint64 `json:"dispatched"`
	Failures         uint64 `json:"failures"`
	LastError        string `json:"last_error,omitempty"`
}

// Status is the JSON body of GET /cluster/stats.
type Status struct {
	Workers []WorkerStatus `json:"workers"`
}

// ClusterStats snapshots per-worker health and dispatch counters.
func (co *Coordinator) ClusterStats() Status {
	st := Status{Workers: make([]WorkerStatus, 0, len(co.workers))}
	for _, wk := range co.workers {
		st.Workers = append(st.Workers, wk.status())
	}
	return st
}
