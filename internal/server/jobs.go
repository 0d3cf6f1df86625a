package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
)

// Job states, as reported by GET /jobs/{id}.
const (
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStatus is the JSON body of GET /jobs/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Done / Total track per-cell progress (cache hits count as done).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Error is set when the job failed outright (the grid never ran) —
	// per-cell failures stay inside the results' error fields instead.
	Error string `json:"error,omitempty"`
	// ResultsURL serves the results document once the job is done.
	ResultsURL string `json:"results_url,omitempty"`
}

// job is one asynchronous sweep execution.
type job struct {
	id string

	mu      sync.Mutex
	state   string
	done    int
	total   int
	err     string
	results []byte // the results document, set when state == JobDone
}

// status snapshots the job for GET /jobs/{id}.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, State: j.state, Done: j.done, Total: j.total, Error: j.err}
	if j.state == JobDone {
		st.ResultsURL = "/jobs/" + j.id + "/results"
	}
	return st
}

// progress records per-cell completion progress.
func (j *job) progress(done int) {
	j.mu.Lock()
	j.done = done
	j.mu.Unlock()
}

// finish moves the job out of the running state: failed when err is
// non-nil (the document could not be built), else done. Per-cell
// failures travel inside the document, matching the CLI: the job itself
// completed.
func (j *job) finish(results []byte, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.state = JobFailed
		j.err = err.Error()
		return
	}
	j.state = JobDone
	j.results = results
	j.done = j.total
}

// resultBytes returns the results document once the job is done.
func (j *job) resultBytes() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.results, j.state == JobDone
}

// maxFinishedJobs bounds how many completed jobs stay pollable.
const maxFinishedJobs = 32

// jobRegistry tracks asynchronous sweeps. The maxFinishedJobs most
// recently completed jobs are retained, so poll results stay available
// for a while without growing without limit; running jobs are never
// evicted.
type jobRegistry struct {
	mu       sync.Mutex
	seq      int
	byID     map[string]*job
	finished []string // completed job IDs in completion order
}

// create registers a new running job over total cells.
func (r *jobRegistry) create(total int) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	j := &job{id: fmt.Sprintf("job-%d", r.seq), state: JobRunning, total: total}
	r.byID[j.id] = j
	return j
}

// get looks a job up by ID.
func (r *jobRegistry) get(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.byID[id]
	return j, ok
}

// complete records that a job left the running state and evicts the
// oldest finished jobs beyond the retention bound.
func (r *jobRegistry) complete(j *job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished = append(r.finished, j.id)
	for len(r.finished) > maxFinishedJobs {
		delete(r.byID, r.finished[0])
		r.finished = r.finished[1:]
	}
}

// handleHTTP serves GET /jobs/{id} and GET /jobs/{id}/results from the
// registry.
func (r *jobRegistry) handleHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	rest := strings.TrimPrefix(req.URL.Path, "/jobs/")
	id, wantResults := rest, false
	if sub, ok := strings.CutSuffix(rest, "/results"); ok {
		id, wantResults = sub, true
	}
	j, ok := r.get(id)
	if !ok || id == "" || strings.Contains(id, "/") {
		httpError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	if !wantResults {
		writeJSONBody(w, http.StatusOK, j.status())
		return
	}
	blob, done := j.resultBytes()
	if !done {
		httpError(w, http.StatusConflict, "job %s is %s, results not available", id, j.status().State)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
}
