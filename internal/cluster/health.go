package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"smtfetch/internal/experiment"
	"smtfetch/internal/server"
)

// worker is one fleet member and its health bookkeeping. Workers start
// presumed alive; a dispatch or probe failure demotes them (with an
// exponentially backed-off next-probe time), a successful probe or
// dispatch restores them.
type worker struct {
	url    string
	client *server.Client

	mu        sync.Mutex
	alive     bool
	fails     int // consecutive failures (dispatch or probe)
	lastErr   string
	nextProbe time.Time

	dispatched uint64
	failures   uint64
}

func (wk *worker) isAlive() bool {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	return wk.alive
}

func (wk *worker) noteDispatch() {
	wk.mu.Lock()
	wk.dispatched++
	wk.mu.Unlock()
}

func (wk *worker) noteSuccess() {
	wk.mu.Lock()
	wk.alive = true
	wk.fails = 0
	wk.lastErr = ""
	wk.nextProbe = time.Time{}
	wk.mu.Unlock()
}

// noteFailure demotes the worker and schedules its next probe at
// base×2^(fails-1), capped at max: a worker that just blipped is retried
// quickly, one that has been dead for an hour is probed at the cap
// instead of hammered.
func (co *Coordinator) noteFailure(wk *worker, err error) {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	wk.failures++
	wk.fails++
	wk.alive = false
	wk.lastErr = err.Error()
	backoff := co.probeBase
	for i := 1; i < wk.fails && backoff < probeBackoffMax; i++ {
		backoff *= 2
	}
	if backoff > probeBackoffMax {
		backoff = probeBackoffMax
	}
	wk.nextProbe = co.now().Add(backoff)
}

func (wk *worker) status() WorkerStatus {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	return WorkerStatus{
		URL:              wk.url,
		Alive:            wk.alive,
		ConsecutiveFails: wk.fails,
		Dispatched:       wk.dispatched,
		Failures:         wk.failures,
		LastError:        wk.lastErr,
	}
}

// probeDue reports whether the worker's backoff allows a probe now.
func (wk *worker) probeDue(now time.Time) bool {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	return !now.Before(wk.nextProbe)
}

// Start launches the background health loop: every ProbeInterval, every
// worker whose backoff has elapsed is probed, so dead workers rejoin the
// rendezvous ring without waiting for a dispatch to risk a cell on them.
// Stop (or never calling Start) leaves health entirely dispatch-driven.
func (co *Coordinator) Start(interval time.Duration) {
	if interval <= 0 {
		interval = co.probeBase
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-co.stop:
				return
			case <-t.C:
				co.ProbeDue()
			}
		}
	}()
}

// Stop terminates the background health loop.
func (co *Coordinator) Stop() {
	co.stopOnce.Do(func() { close(co.stop) })
}

// ProbeDue probes every worker whose backoff has elapsed.
func (co *Coordinator) ProbeDue() {
	now := co.now()
	for _, wk := range co.workers {
		if wk.probeDue(now) {
			co.probeWorker(wk)
		}
	}
}

// ProbeAll probes every worker immediately, ignoring backoff. Tests and
// operators (via a fresh dispatch burst) use it to re-admit revived
// workers deterministically.
func (co *Coordinator) ProbeAll() {
	for _, wk := range co.workers {
		co.probeWorker(wk)
	}
}

// probeWorker checks one worker's liveness AND compatibility: /healthz
// must answer 200 and /identz must report the coordinator's own result
// schema. A live worker speaking a different schema is deliberately kept
// out of the ring — merging its documents would silently corrupt the
// response — and keeps backing off like a dead one.
func (co *Coordinator) probeWorker(wk *worker) {
	id, err := co.fetchIdentity(wk)
	if err != nil {
		co.noteFailure(wk, fmt.Errorf("probe: %w", err))
		return
	}
	if id.ResultSchema != experiment.SchemaVersion {
		co.noteFailure(wk, fmt.Errorf("probe: worker %s speaks result schema %d, coordinator needs %d", wk.url, id.ResultSchema, experiment.SchemaVersion))
		return
	}
	if err := co.checkHealthz(wk); err != nil {
		co.noteFailure(wk, fmt.Errorf("probe: %w", err))
		return
	}
	wk.noteSuccess()
}

func (co *Coordinator) fetchIdentity(wk *worker) (server.Identity, error) {
	var id server.Identity
	resp, err := co.httpc.Get(wk.url + "/identz")
	if err != nil {
		return id, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return id, err
	}
	if resp.StatusCode != http.StatusOK {
		return id, fmt.Errorf("GET %s/identz: %s", wk.url, resp.Status)
	}
	if err := json.Unmarshal(body, &id); err != nil {
		return id, fmt.Errorf("GET %s/identz: bad identity: %w", wk.url, err)
	}
	return id, nil
}

func (co *Coordinator) checkHealthz(wk *worker) error {
	resp, err := co.httpc.Get(wk.url + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s/healthz: %s", wk.url, resp.Status)
	}
	return nil
}
