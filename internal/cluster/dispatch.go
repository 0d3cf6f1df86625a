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
	ranked := co.rank(routingKey(sw, c))
	tried := make(map[*worker]bool, len(ranked))
	var lastErr error
	for _, wantAlive := range []bool{true, false} {
		for _, wk := range ranked {
			if tried[wk] || wk.isAlive() != wantAlive {
				continue
			}
			tried[wk] = true
			res, err := co.tryWorker(wk, sw, c)
			if err == nil {
				return res
			}
			lastErr = err
		}
	}
	r := experiment.Result{
		Workload: c.Workload,
		Engine:   c.Engine.String(),
		Policy:   c.Policy.String(),
		Seed:     c.Seed,
	}
	r.Error = fmt.Sprintf("cluster: no worker could run cell %s: %v", c.Key(), lastErr)
	return r
}

// tryWorker runs one cell on one worker via the ordinary sweep-server
// protocol: a single-cell grid POSTed to /sweep (answered synchronously
// by any default-configured worker; the client transparently polls
// all-async ones). A transport failure, HTTP error, or malformed
// response marks the worker dead — with its probe backoff started — and
// is returned so the caller re-dispatches.
func (co *Coordinator) tryWorker(wk *worker, sw *experiment.Sweep, c experiment.Cell) (experiment.Result, error) {
	wk.noteDispatch()
	blob, err := wk.client.Sweep(cellRequest(sw, c))
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

// cellRequest phrases one cell as a single-cell sweep request carrying
// the sweep's phase lengths, sampling spec, and warm-fork mode — every
// fingerprint component — so the worker caches the cell under exactly
// the key a whole-grid request for the same sweep would use.
func cellRequest(sw *experiment.Sweep, c experiment.Cell) server.SweepRequest {
	return server.SweepRequest{
		Workloads:     []string{c.Workload},
		Engines:       []string{c.Engine.String()},
		Policies:      []string{c.Policy.String()},
		Seeds:         []uint64{c.Seed},
		WarmupInstrs:  sw.WarmupInstrs,
		WarmupCycles:  sw.WarmupCycles,
		MeasureInstrs: sw.MeasureInstrs,
		MaxCycles:     sw.MaxCycles,
		Sample:        sw.Sample,
		WarmFork:      sw.WarmFork,
	}
}
