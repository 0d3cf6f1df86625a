package cluster

import (
	"bytes"
	"errors"
	"fmt"

	"smtfetch/internal/experiment"
	"smtfetch/internal/server"
)

// fetchCell resolves one cell cluster-wide, single-flighting on the full
// content key (fingerprint + cell key): while a dispatch for the key is
// in flight anywhere — from this request or a concurrently posted
// overlapping grid — no second dispatch starts. Combined with each
// worker's cache and its own single-flight, a shared cell simulates
// exactly once across the fleet no matter how many grids want it. An
// error result is a failed call, so its waiters re-dispatch rather than
// inherit a transient worker failure.
func (co *Coordinator) fetchCell(sw *experiment.Sweep, fp string, c experiment.Cell) experiment.Result {
	res, _ := co.flight.Do(server.CacheKey(fp, c), func() (experiment.Result, error) {
		res := co.dispatchCell(sw, c)
		if res.Error != "" {
			return res, errors.New(res.Error)
		}
		return res, nil
	})
	return res
}

// dispatchCell executes one cell on the fleet: workers are tried in
// rendezvous order for the cell's routing key — live workers first, then
// (only if every live worker failed) the ones currently marked dead, so
// a fleet-wide false alarm degrades to retrying rather than failing the
// cell outright. A worker that errors is marked dead and the cell moves
// to the next worker in the ranking; a worker whose *simulation* errors
// is healthy infrastructure reporting a failing cell, which is returned
// as-is (re-dispatching it elsewhere would deterministically fail the
// same way).
func (co *Coordinator) dispatchCell(sw *experiment.Sweep, c experiment.Cell) experiment.Result {
	// A single-cell request carrying every key-document input of the
	// sweep, so the worker caches the cell under exactly the key a
	// whole-grid request for the same sweep would use.
	req, err := server.NewSweepRequest(sw)
	if err != nil {
		return experiment.NewResult(c, nil, fmt.Errorf("cluster: cell %s: %w", c.Key(), err))
	}
	req.Workloads, req.Seeds = []string{c.Workload}, []uint64{c.Seed}
	req.Engines, req.Policies = []string{c.Engine.String()}, []string{c.Policy.String()}

	ranked := co.rank(routingKey(sw, c))
	tried := make(map[*worker]bool, len(ranked))
	var lastErr error
	for _, wantAlive := range []bool{true, false} {
		for _, wk := range ranked {
			if tried[wk] || wk.isAlive() != wantAlive {
				continue
			}
			tried[wk] = true
			res, err := co.tryWorker(wk, req, c)
			if err == nil {
				return res
			}
			lastErr = err
		}
	}
	return experiment.NewResult(c, nil, fmt.Errorf("cluster: no worker could run cell %s: %v", c.Key(), lastErr))
}

// tryWorker runs one cell on one worker via the ordinary sweep-server
// protocol: a single-cell grid POSTed to /sweep (answered synchronously
// by any default-configured worker; the client transparently polls
// all-async ones). A transport failure, HTTP error, or malformed
// response marks the worker dead — with its probe backoff started — and
// is returned so the caller re-dispatches.
func (co *Coordinator) tryWorker(wk *worker, req server.SweepRequest, c experiment.Cell) (experiment.Result, error) {
	wk.noteDispatch()
	blob, err := wk.client.Sweep(req)
	if err != nil {
		co.noteFailure(wk, err)
		return experiment.Result{}, fmt.Errorf("worker %s: %w", wk.url, err)
	}
	rs, err := experiment.ReadJSON(bytes.NewReader(blob))
	if err != nil {
		err = fmt.Errorf("worker %s: bad results document: %w", wk.url, err)
		co.noteFailure(wk, err)
		return experiment.Result{}, err
	}
	if len(rs) != 1 || rs[0].Key() != c.Key() {
		err = fmt.Errorf("worker %s: asked for cell %s, got %d result(s)", wk.url, c.Key(), len(rs))
		co.noteFailure(wk, err)
		return experiment.Result{}, err
	}
	wk.noteSuccess()
	return rs[0], nil
}
