package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"smtfetch/internal/experiment"
)

// CellSource is what a sweep service adds to the shared front end: how
// one request's cells are answered. It is called once per accepted
// request with the prepared sweep and its Fingerprint, may set the
// sweep's execution mechanics (SnapshotSource), and returns the
// ResultSource the sweep's cells are run through.
type CellSource func(sw *experiment.Sweep, fp string) experiment.ResultSource

// FrontEnd is the HTTP protocol every sweep service speaks:
//
//	POST /sweep              run a grid (streamed sync body or 202 + job ID)
//	GET  /jobs/{id}          poll an async sweep
//	GET  /jobs/{id}/results  fetch its results document
//	GET  /healthz            liveness probe
//
// A sweep server and a cluster coordinator each build one around their
// own CellSource, so `sweep -server` clients cannot tell them apart. A
// synchronous reply is written while the cells run, in canonical order
// (experiment.Sweep.WriteCells); a job's document is built the same way
// into memory.
type FrontEnd struct {
	mux       *http.ServeMux
	jobs      *jobRegistry
	syncLimit int
	poolJobs  int
	source    CellSource

	// jobsWG tracks running async sweep goroutines so a graceful
	// shutdown can drain them (WaitJobs).
	jobsWG sync.WaitGroup
}

// NewFrontEnd builds a front end. syncLimit is the largest grid POST
// /sweep answers in-request; bigger grids get a job ID and polling (< 0 =
// everything async, 0 = default 16). jobs is each sweep's worker pool
// (experiment.Sweep.Jobs; <= 0 means NumCPU).
func NewFrontEnd(syncLimit, jobs int, source CellSource) *FrontEnd {
	if syncLimit == 0 {
		syncLimit = 16
	}
	f := &FrontEnd{
		mux:       http.NewServeMux(),
		jobs:      &jobRegistry{byID: map[string]*job{}},
		syncLimit: syncLimit,
		poolJobs:  jobs,
		source:    source,
	}
	f.mux.HandleFunc("/sweep", f.handleSweep)
	f.mux.HandleFunc("/jobs/", f.jobs.handleHTTP)
	f.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSONBody(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return f
}

// Handle mounts a service's own endpoint beside the shared ones.
func (f *FrontEnd) Handle(pattern string, h http.HandlerFunc) {
	f.mux.HandleFunc(pattern, h)
}

func (f *FrontEnd) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mux.ServeHTTP(w, r)
}

// WaitJobs blocks until every running async sweep has finished. A
// graceful shutdown calls it after the HTTP listener closes, so in-flight
// jobs complete instead of being killed mid-grid.
func (f *FrontEnd) WaitJobs() {
	f.jobsWG.Wait()
}

// GetJSON is a GET-only handler answering with the JSON of get().
func GetJSON(get func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSONBody(w, http.StatusOK, get())
	}
}

// httpError sends a plain-text error. Validation and parse failures are
// the caller's fault (400); everything else that can fail here is a
// lookup miss (404) or a method mismatch (405).
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

// maxSweepRequestBytes caps a POST /sweep body. Real requests are a few
// hundred bytes; the cap stops one client from making the service buffer
// an unbounded body.
const maxSweepRequestBytes = 1 << 20

// decodeSweepRequest reads a POST /sweep body of at most
// maxSweepRequestBytes, rejecting unknown fields. On failure it has
// already answered — 413 for an oversized body, 400 for a malformed one —
// and reports false.
func decodeSweepRequest(w http.ResponseWriter, r *http.Request) (SweepRequest, bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepRequestBytes))
	dec.DisallowUnknownFields()
	var req SweepRequest
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "bad sweep request: %v", err)
		return SweepRequest{}, false
	}
	return req, true
}

// handleSweep validates a request, then either streams the results
// document into the response or starts a job. Per-cell failures travel
// inside the document, matching CLI semantics where a partially failed
// grid still writes its results file.
func (f *FrontEnd) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST /sweep only")
		return
	}
	req, ok := decodeSweepRequest(w, r)
	if !ok {
		return
	}
	sw, err := req.Sweep()
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad sweep request: %v", err)
		return
	}
	sw.Jobs = f.poolJobs
	cells, err := sw.Prepare()
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid sweep: %v", err)
		return
	}
	src := f.source(sw, Fingerprint(sw))

	if !req.Async && f.syncLimit > 0 && len(cells) <= f.syncLimit {
		w.Header().Set("Content-Type", "application/json")
		// A write error means the client went away; the cells still
		// finish and land wherever the source keeps them.
		sw.WriteCells(w, cells, src)
		return
	}

	j := f.jobs.create(len(cells))
	sw.OnResult = func(done, _ int, _ experiment.Result) { j.progress(done) }
	f.jobsWG.Add(1)
	go func() {
		defer f.jobsWG.Done()
		var doc bytes.Buffer
		err := sw.WriteCells(&doc, cells, src)
		j.finish(doc.Bytes(), err)
		f.jobs.complete(j)
	}()
	writeJSONBody(w, http.StatusAccepted, j.status())
}
