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
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
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
	// MaxFinishedJobs bounds completed-job retention (<= 0 = 32).
	MaxFinishedJobs int
	// Jobs bounds concurrent cell dispatches across the fleet
	// (<= 0 = 4 × len(Workers)).
	Jobs int
	// Window bounds the streamed merge's reorder buffer: at most this
	// many results are in flight or buffered ahead of the canonical
	// write position (<= 0 = 2 × Jobs, minimum Jobs).
	Window int
	// PollInterval is handed to the per-worker clients for async-job
	// polling (0 = 200ms). Single-cell dispatches are normally answered
	// synchronously; this only matters for workers running -sync-limit -1.
	PollInterval time.Duration
	// ProbeInterval is the health-probe period for Start (0 = 5s). It is
	// also the base of the dead-worker probe backoff: after n consecutive
	// failures a worker is probed no sooner than ProbeInterval×2^(n-1),
	// capped at ProbeBackoffMax.
	ProbeInterval time.Duration
	// ProbeBackoffMax caps the dead-worker probe backoff (0 = 1 minute).
	ProbeBackoffMax time.Duration
	// Now replaces time.Now for backoff bookkeeping; tests inject a fake
	// clock to pin the schedule. Nil means time.Now.
	Now func() time.Time
}

// Coordinator is the cluster front end: an http.Handler exposing
//
//	POST /sweep          run a grid across the fleet (streamed sync body
//	                     or 202 + job ID)
//	GET  /jobs/{id}          poll an async sweep (same protocol as server)
//	GET  /jobs/{id}/results  fetch its results document
//	GET  /cluster/stats      per-worker health and dispatch counters
//	GET  /healthz            coordinator liveness
type Coordinator struct {
	workers   []*worker
	jobs      *server.JobRegistry
	syncLimit int
	poolJobs  int
	window    int
	mux       *http.ServeMux
	httpc     *http.Client
	probeBase time.Duration
	probeMax  time.Duration
	now       func() time.Time

	jobsWG   sync.WaitGroup
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
	syncLimit := cfg.SyncCellLimit
	if syncLimit == 0 {
		syncLimit = 16
	}
	maxDone := cfg.MaxFinishedJobs
	if maxDone <= 0 {
		maxDone = 32
	}
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = 4 * len(cfg.Workers)
	}
	window := cfg.Window
	if window <= 0 {
		window = 2 * jobs
	}
	if window < jobs {
		window = jobs
	}
	poll := cfg.PollInterval
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	probeBase := cfg.ProbeInterval
	if probeBase <= 0 {
		probeBase = 5 * time.Second
	}
	probeMax := cfg.ProbeBackoffMax
	if probeMax <= 0 {
		probeMax = time.Minute
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	co := &Coordinator{
		jobs:      server.NewJobRegistry(maxDone),
		syncLimit: syncLimit,
		poolJobs:  jobs,
		window:    window,
		httpc:     httpc,
		probeBase: probeBase,
		probeMax:  probeMax,
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
	co.mux = http.NewServeMux()
	co.mux.HandleFunc("/sweep", co.handleSweep)
	co.mux.HandleFunc("/jobs/", co.jobs.HandleHTTP)
	co.mux.HandleFunc("/cluster/stats", co.handleStats)
	co.mux.HandleFunc("/healthz", co.handleHealthz)
	return co, nil
}

func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	co.mux.ServeHTTP(w, r)
}

// WaitJobs blocks until every running async sweep has finished, so a
// graceful shutdown drains in-flight grids before the listener dies.
func (co *Coordinator) WaitJobs() {
	co.jobsWG.Wait()
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func writeJSONBody(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (co *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST /sweep only")
		return
	}
	req, ok := server.DecodeSweepRequest(w, r)
	if !ok {
		return
	}
	sw, err := req.Sweep()
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad sweep request: %v", err)
		return
	}
	cells, err := sw.Prepare()
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid sweep: %v", err)
		return
	}
	fp := server.Fingerprint(sw)

	if !req.Async && co.syncLimit > 0 && len(cells) <= co.syncLimit {
		// Stream the merged document straight into the response: results
		// are written in canonical order as workers deliver them, never
		// buffering more than the reorder window.
		w.Header().Set("Content-Type", "application/json")
		co.runSweepStream(sw, cells, fp, w, nil)
		return
	}

	j := co.jobs.Create(len(cells))
	co.jobsWG.Add(1)
	go func() {
		defer co.jobsWG.Done()
		var buf bytes.Buffer
		err := co.runSweepStream(sw, cells, fp, &buf, j)
		if err != nil {
			j.Finish(nil, err)
		} else {
			j.Finish(buf.Bytes(), nil)
		}
		co.jobs.Complete(j)
	}()
	writeJSONBody(w, http.StatusAccepted, j.Status())
}

// runSweepStream executes cells across the fleet and writes the merged
// results document to w in canonical order. Per-cell failures (including
// cells no worker could run) travel inside the document, matching local
// sweep semantics; the returned error covers only document-level failures
// (an unwritable response).
func (co *Coordinator) runSweepStream(sw *experiment.Sweep, cells []experiment.Cell, fp string, w io.Writer, j *server.Job) error {
	// Pre-sorting the cells canonically makes "emit in cell order" and
	// "emit in SortResults order" the same thing, which is what lets the
	// merge stream instead of sort-at-the-end like Sweep.RunCells.
	sorted := make([]experiment.Cell, len(cells))
	copy(sorted, cells)
	experiment.SortCells(sorted)

	stream := experiment.NewResultStream(w)
	var done atomic.Int64
	fetch := func(c experiment.Cell) experiment.Result {
		r := co.fetchCell(sw, fp, c)
		if j != nil {
			j.Progress(int(done.Add(1)))
		}
		return r
	}
	if err := runOrdered(sorted, co.poolJobs, co.window, fetch, stream.Write); err != nil {
		return err
	}
	return stream.Close()
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

func (co *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSONBody(w, http.StatusOK, co.ClusterStats())
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSONBody(w, http.StatusOK, map[string]string{"status": "ok"})
}
