package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"smtfetch/internal/cluster"
	"smtfetch/internal/experiment"
	"smtfetch/internal/server"
)

// The service_mix workload: a closed loop of nproc clients, each waiting
// for its reply before sending the next request, against an in-process
// cluster.Coordinator in front of two in-process server.Server workers,
// all over loopback HTTP. Set-up fills the result cache with a catalog of
// small grids. One request in every writeEvery is a write: a catalog
// template at a fresh seed, which misses and simulates. The rest are
// reads of catalog grids, which hit the result tier.

const (
	writeEvery  = 20 // one write per block of this many requests
	catalogReps = 4  // catalog grids per template
	serviceHdr  = "X-Perfbench-Span"
)

// serviceTemplates are the small grids the catalog and the writes are made
// of. The warm_fork ones give the snapshot tier stores (the first cell of
// a fresh group) and hits (the second).
var serviceTemplates = []server.SweepRequest{
	{Workloads: []string{"2_MIX"}, Engines: []string{"gskew+FTB"}, Policies: []string{"ICOUNT.1.8"}},
	{Workloads: []string{"2_MIX"}, Engines: []string{"stream"}, Policies: []string{"ICOUNT.2.8", "FLUSH.2.8"}},
	{Workloads: []string{"4_MIX"}, Engines: []string{"gshare+BTB"}, Policies: []string{"RR.1.8"}},
	{Workloads: []string{"2_MIX"}, Engines: []string{"gskew+FTB"}, Policies: []string{"ICOUNT.2.8", "STALL.2.8"}, WarmFork: experiment.WarmForkFork},
	{Workloads: []string{"4_MIX"}, Engines: []string{"stream"}, Policies: []string{"ICOUNT.1.8"}},
	{Workloads: []string{"4_MIX"}, Engines: []string{"gskew+FTB"}, Policies: []string{"ICOUNT.2.8", "BRCOUNT.2.8"}, WarmFork: experiment.WarmForkFork},
}

const (
	serviceWarmup  = 5_000
	serviceMeasure = 10_000
	// snapshotTier bounds each worker's snapshot tier. Writes never reuse
	// a fresh group's checkpoint after the request, so a small tier is
	// full from set-up on and the live heap stays level through the
	// window instead of growing with the number of writes served.
	snapshotTier = 8
)

// withSeed is template t at replication seed s.
func withSeed(t server.SweepRequest, s uint64) server.SweepRequest {
	t.Seeds = []uint64{s}
	t.WarmupInstrs, t.MeasureInstrs = serviceWarmup, serviceMeasure
	return t
}

// catalog is the set-up grids for a seed: every template at catalogReps
// replication seeds. Catalog seeds and write seeds come from disjoint
// ranges, so a write never repeats a catalog grid.
func catalog(seed uint64) []server.SweepRequest {
	var out []server.SweepRequest
	for r := 0; r < catalogReps; r++ {
		for _, t := range serviceTemplates {
			out = append(out, withSeed(t, seed<<24|uint64(r)))
		}
	}
	return out
}

// request is one generated request: a read of catalog grid cat, or a
// write (cat -1).
type request struct {
	grid server.SweepRequest
	cat  int
}

func (r request) write() bool { return r.cat < 0 }

// requestGen is one client's seeded request stream: blocks of writeEvery
// requests with exactly one write at a seeded position; reads pick
// catalog grids uniformly; writes cycle through the templates at fresh
// seeds unique to the client.
type requestGen struct {
	rng      *rand.Rand
	seed     uint64
	client   int
	cat      []server.SweepRequest
	pos      int
	writeAt  int
	nwritten int
}

func newRequestGen(seed uint64, client int) *requestGen {
	return &requestGen{
		rng:    rand.New(rand.NewPCG(seed, uint64(client))),
		seed:   seed,
		client: client,
		cat:    catalog(seed),
	}
}

func (g *requestGen) next() request {
	if g.pos%writeEvery == 0 {
		g.writeAt = g.rng.IntN(writeEvery)
	}
	i := g.pos % writeEvery
	g.pos++
	if i == g.writeAt {
		t := serviceTemplates[g.nwritten%len(serviceTemplates)]
		fresh := g.seed<<24 | 1<<23 | uint64(g.client)<<16 | uint64(g.nwritten)
		g.nwritten++
		return request{grid: withSeed(t, fresh), cat: -1}
	}
	i = g.rng.IntN(len(g.cat))
	return request{grid: g.cat[i], cat: i}
}

// nprocEach calls f(0), …, f(n-1), nproc at a time, and returns the first
// error by index once every call has returned.
func nprocEach(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// localResults runs grids as local experiment sweeps, nproc at a time,
// and returns each results document.
func localResults(grids []server.SweepRequest, run func(*experiment.Sweep) ([]byte, error)) ([][]byte, error) {
	out := make([][]byte, len(grids))
	err := nprocEach(len(grids), func(i int) error {
		sw, err := grids[i].Sweep()
		if err != nil {
			return err
		}
		sw.Jobs = 1
		out[i], err = run(sw)
		return err
	})
	return out, err
}

func runLocal(sw *experiment.Sweep) ([]byte, error) {
	rs, _ := sw.Run() // failed cells stay in the document
	return experiment.MarshalJSONResults(rs)
}

// service is a running coordinator and its two workers.
type service struct {
	workers  []*server.Server
	coord    *cluster.Coordinator
	url      string
	https    []*http.Server
	serving  sync.WaitGroup
	clientTr *http.Transport
	coordTr  *http.Transport
	client   *http.Client
}

// startService starts two workers and a coordinator on loopback. Each
// worker simulates one cell per request (Jobs 1) and the coordinator
// dispatches one cell of a request at a time (Jobs 1), so with nproc
// closed-loop clients at most nproc goroutines simulate at once. With a
// non-nil st, every handler and dispatch is wrapped in spans.
func startService(st *serviceTrace) (*service, error) {
	s := &service{
		clientTr: &http.Transport{MaxIdleConnsPerHost: 4 * runtime.NumCPU()},
		coordTr:  &http.Transport{MaxIdleConnsPerHost: 4 * runtime.NumCPU()},
	}
	s.client = &http.Client{Transport: s.clientTr}
	var urls []string
	for i := 0; i < 2; i++ {
		w, err := server.New(server.Config{Jobs: 1, SnapshotCacheSize: snapshotTier})
		if err != nil {
			s.close()
			return nil, err
		}
		s.workers = append(s.workers, w)
		var h http.Handler = w
		if st != nil {
			h = st.wrap("server.request", h, false)
		}
		u, err := s.listen(h)
		if err != nil {
			s.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	var rt http.RoundTripper = s.coordTr
	if st != nil {
		rt = &dispatchTransport{base: s.coordTr, st: st}
	}
	co, err := cluster.New(cluster.Config{Workers: urls, HTTPClient: &http.Client{Transport: rt}, Jobs: 1})
	if err != nil {
		s.close()
		return nil, err
	}
	s.coord = co
	var h http.Handler = co
	if st != nil {
		h = st.wrap("cluster.request", h, true)
	}
	if s.url, err = s.listen(h); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *service) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	s.https = append(s.https, hs)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts every listener down, waits for in-flight requests and the
// serving goroutines, and drops idle connections.
func (s *service) close() {
	s.clientTr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := len(s.https) - 1; i >= 0; i-- { // coordinator first
		s.https[i].Shutdown(ctx)
	}
	s.serving.Wait()
	if s.coord != nil {
		s.coord.WaitJobs()
	}
	for _, w := range s.workers {
		w.WaitJobs()
	}
	s.coordTr.CloseIdleConnections()
}

// post sends one grid and returns the response body and latency.
func (s *service) post(g server.SweepRequest, spanID int) ([]byte, time.Duration, error) {
	body, err := json.Marshal(g)
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, s.url+"/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID != 0 {
		req.Header.Set(serviceHdr, strconv.Itoa(spanID))
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, time.Since(t0), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("POST /sweep: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return b, lat, nil
}

// cacheTotals sums both workers' cache counters.
func (s *service) cacheTotals() server.CacheStats {
	var t server.CacheStats
	for _, w := range s.workers {
		c := w.CacheStats()
		t.Hits += c.Hits
		t.Misses += c.Misses
		t.Stores += c.Stores
		t.SnapshotHits += c.SnapshotHits
		t.SnapshotStores += c.SnapshotStores
	}
	return t
}

// fill posts every catalog grid, nproc at a time, and checks each reply
// against the local results.
func (s *service) fill(cat []server.SweepRequest, want [][]byte, chk *checks) error {
	got := make([][]byte, len(cat))
	err := nprocEach(len(cat), func(i int) error {
		var err error
		if got[i], _, err = s.post(cat[i], 0); err != nil {
			return fmt.Errorf("set-up request %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range cat {
		if !bytes.Equal(got[i], want[i]) {
			chk.failf("set-up response for catalog grid %d differs from a local sweep of the same grid", i)
		}
	}
	return nil
}

// reply is one completed closed-loop request. Reads are checked against
// the catalog's local results as they arrive; only write bodies are kept,
// for checking after the window.
type reply struct {
	req      request
	body     []byte
	lat      time.Duration
	err      error
	mismatch bool
	done     time.Time
}

// window runs nproc closed-loop clients for d and returns every reply.
func (s *service) window(gens []*requestGen, want [][]byte, d time.Duration, st *serviceTrace) ([]reply, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]reply, len(gens))
	var wg sync.WaitGroup
	for c, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline); n++ {
				rq := g.next()
				id := 0
				if st != nil {
					id = st.tr.begin("client.request", 0, fmt.Sprintf("client%d/%d", c, n))
				}
				body, lat, err := s.post(rq.grid, id)
				if st != nil {
					st.tr.end(id)
				}
				r := reply{req: rq, lat: lat, err: err, done: time.Now()}
				if rq.write() {
					r.body = body
				} else if err == nil {
					r.mismatch = !bytes.Equal(body, want[rq.cat])
				}
				per[c] = append(per[c], r)
			}
		}()
	}
	wg.Wait()
	var all []reply
	last := start
	for _, rs := range per {
		all = append(all, rs...)
		for _, r := range rs {
			if r.done.After(last) {
				last = r.done
			}
		}
	}
	return all, last.Sub(start)
}

// checkCatalog applies the per-cell check to the catalog's local results
// and returns which catalog grids hold a failed cell.
func checkCatalog(want [][]byte, chk *checks) ([]bool, error) {
	failed := make([]bool, len(want))
	for i, b := range want {
		rs, err := experiment.ReadJSON(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		failed[i] = len(checkCells(rs, serviceMeasure, chk)) > 0
	}
	return failed, nil
}

// verify checks the writes of a window against local sweeps of the same
// grids and counts failed requests: transport or HTTP errors, and replies
// holding a failed cell. It also returns the measured kilo-cycles the
// writes simulated.
func verify(replies []reply, catFailed []bool, run func(*experiment.Sweep) ([]byte, error), chk *checks) (failed int, writeKcyc float64, err error) {
	var writes []server.SweepRequest
	var bodies [][]byte
	mismatches := 0
	for _, r := range replies {
		switch {
		case r.err != nil:
			failed++
		case !r.req.write():
			if r.mismatch {
				mismatches++
			}
			if catFailed[r.req.cat] {
				failed++
			}
		default:
			rs, err := experiment.ReadJSON(bytes.NewReader(r.body))
			if err != nil {
				chk.failf("unparseable write response: %v", err)
				continue
			}
			if len(checkCells(rs, serviceMeasure, chk)) > 0 {
				failed++
			}
			writes = append(writes, r.req.grid)
			bodies = append(bodies, r.body)
			writeKcyc += measuredKcyc(rs)
		}
	}
	local, err := localResults(writes, run)
	if err != nil {
		return 0, 0, err
	}
	for i := range writes {
		if !bytes.Equal(local[i], bodies[i]) {
			mismatches++
		}
	}
	if mismatches > 0 {
		chk.failf("%d of %d responses differ from a local sweep of the same grid", mismatches, len(replies))
	} else {
		chk.passf("all %d responses (%d writes) are byte-identical to local sweeps of the same grids", len(replies), len(writes))
	}
	return failed, writeKcyc, nil
}

// serviceStats are the end-to-end figures of one window.
type serviceStats struct {
	lat, writeLat []time.Duration
	completed     int
	elapsed       time.Duration
}

func windowStats(replies []reply, elapsed time.Duration) serviceStats {
	st := serviceStats{elapsed: elapsed}
	for _, r := range replies {
		if r.err != nil {
			continue
		}
		st.completed++
		st.lat = append(st.lat, r.lat)
		if r.req.write() {
			st.writeLat = append(st.writeLat, r.lat)
		}
	}
	return st
}

// runService is both runs of service_mix. Untraced, it reports set-up
// time (median of three set-ups) and one closed-loop window. Traced, it
// computes the catalog's local results through the traced executor, runs
// one untraced and one traced window on the same service, and re-runs the
// writes through the traced executor under the CPU profiler; the prog,
// core and experiment layers come from those local runs.
func runService(o options) (*outcome, error) {
	out := newOutcome("requests")
	cat := catalog(o.seed)
	clients := runtime.NumCPU()
	gens := make([]*requestGen, clients)
	for c := range gens {
		gens[c] = newRequestGen(o.seed, c)
	}
	if !o.trace {
		want, err := localResults(cat, runLocal)
		if err != nil {
			return nil, err
		}
		catFailed, err := checkCatalog(want, &out.chk)
		if err != nil {
			return nil, err
		}
		out.digest("catalog", bytes.Join(want, nil))
		var setups []float64
		var svc *service
		for i := 0; i < 3; i++ {
			if svc != nil {
				svc.close()
			}
			t0 := time.Now()
			if svc, err = startService(nil); err != nil {
				return nil, err
			}
			if err := svc.fill(cat, want, &out.chk); err != nil {
				svc.close()
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		mem := startRSS()
		replies, elapsed := svc.window(gens, want, o.duration, nil)
		peak := mem.stopMB()
		svc.close()
		failed, kcyc, err := verify(replies, catFailed, runLocal, &out.chk)
		if err != nil {
			return nil, err
		}
		out.attempted, out.failed = len(replies), failed
		ws := windowStats(replies, elapsed)
		ms := out.metrics
		ms.add("setup_s", median(setups), fmt.Sprintf("median of 3 set-ups: start 2 workers and a coordinator, fill %d catalog grids", len(cat)))
		ms.add("sweep_s", median(seconds(ws.writeLat)), fmt.Sprintf("median over %d writes (requests that simulate), request to merged results JSON", len(ws.writeLat)))
		ms.add("sim_kcyc_per_s", kcyc/elapsed.Seconds(), "measured-phase simulated kcycles of the writes per host second of the window")
		latencyMetrics(ms, ws.lat, fmt.Sprintf("requests from %d closed-loop clients", clients))
		ms.add("req_per_s", float64(ws.completed)/elapsed.Seconds(), "completed requests per second")
		ms.add("peak_rss_mb", mem.sliceMB(100), fmt.Sprintf("peak resident set of each second of the window, median over the seconds; highest %.1f MB", peak))
		return out, nil
	}

	x := newTracedExec()
	runTraced := func(sw *experiment.Sweep) ([]byte, error) {
		r, err := x.run(sw)
		return r.json, err
	}
	want, err := localResults(cat, runTraced)
	if err != nil {
		return nil, err
	}
	catFailed, err := checkCatalog(want, &out.chk)
	if err != nil {
		return nil, err
	}
	out.digest("catalog", bytes.Join(want, nil))
	st := &serviceTrace{tr: x.tr, active: map[string][]int{}}
	svc, err := startService(st)
	if err != nil {
		return nil, err
	}
	if err := svc.fill(cat, want, &out.chk); err != nil {
		svc.close()
		return nil, err
	}
	// Two windows of half the run length each: untraced, then traced.
	plain, plainElapsed := svc.window(gens, want, o.duration/2, nil)
	before := svc.cacheTotals()
	mark := len(x.tr.snapshot())
	st.enabled.Store(true)
	traced, tracedElapsed := svc.window(gens, want, o.duration/2, st)
	st.enabled.Store(false)
	windowSpans := x.tr.snapshot()[mark:]
	after := svc.cacheTotals()
	svc.close()

	// The writes are checked by re-running them through the traced
	// executor, which the catalog has just shown to match the service byte
	// for byte. That re-run is also what the CPU profile covers: it is the
	// only phase whose simulated cycles are all counted.
	prof, err := startProfile(o.outPath("cpu.pprof"))
	if err != nil {
		return nil, err
	}
	cyc0 := x.simCycles.Load()
	for _, rs := range [][]reply{plain, traced} {
		failed, _, err := verify(rs, catFailed, runTraced, &out.chk)
		if err != nil {
			prof.stop()
			return nil, err
		}
		out.attempted += len(rs)
		out.failed += failed
	}
	if err := prof.stop(); err != nil {
		return nil, err
	}
	stages, err := prof.stageNsPerCycle(x.simCycles.Load() - cyc0)
	if err != nil {
		return nil, err
	}
	ms := out.metrics
	x.layerMetrics(ms)
	var catResults []experiment.Result
	for _, b := range want {
		rs, err := experiment.ReadJSON(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		catResults = append(catResults, rs...)
	}
	simMetrics(ms, catResults)
	stageMetrics(ms, stages)
	st.metrics(ms, windowSpans, before, after)
	ps, ts := windowStats(plain, plainElapsed), windowStats(traced, tracedElapsed)
	p50, t50 := median(millis(ps.lat)), median(millis(ts.lat))
	ms.add("trace.overhead_frac", t50/p50-1, fmt.Sprintf("traced req_p50_ms %.4f against untraced %.4f", t50, p50))
	out.tr = x.tr
	return out, nil
}

// serviceTrace wraps the coordinator, the workers and the coordinator's
// dispatch client in spans while enabled.
type serviceTrace struct {
	tr      *tracer
	enabled atomic.Bool
	mu      sync.Mutex
	// active maps each content key of an in-flight coordinator request to
	// that request's span, so a dispatch of the key finds its parent: the
	// coordinator does not pass request context on to its dispatches.
	active map[string][]int
}

// wrap times h. The parent span ID arrives in a request header; with
// register, the request's content keys are registered for its dispatches.
func (st *serviceTrace) wrap(name string, h http.Handler, register bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !st.enabled.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(serviceHdr))
		var keys []string
		if register {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			keys = contentKeys(body)
		}
		id := st.tr.begin(name, parent, "")
		st.mu.Lock()
		for _, k := range keys {
			st.active[k] = append(st.active[k], id)
		}
		st.mu.Unlock()
		h.ServeHTTP(w, r)
		st.tr.end(id)
		st.mu.Lock()
		for _, k := range keys {
			ids := st.active[k]
			for i, v := range ids {
				if v == id {
					ids = append(ids[:i], ids[i+1:]...)
					break
				}
			}
			if len(ids) == 0 {
				delete(st.active, k)
			} else {
				st.active[k] = ids
			}
		}
		st.mu.Unlock()
	})
}

// contentKeys are the result-cache keys of a sweep request body.
func contentKeys(body []byte) []string {
	var req server.SweepRequest
	if json.Unmarshal(body, &req) != nil {
		return nil
	}
	sw, err := req.Sweep()
	if err != nil {
		return nil
	}
	cells, err := sw.Prepare()
	if err != nil {
		return nil
	}
	fp := server.Fingerprint(sw)
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = server.CacheKey(fp, c)
	}
	return keys
}

// dispatchTransport times each coordinator-to-worker round trip, body
// included, and tells the worker its span through a header.
type dispatchTransport struct {
	base http.RoundTripper
	st   *serviceTrace
}

func (d *dispatchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !d.st.enabled.Load() || req.Method != http.MethodPost || req.Body == nil {
		return d.base.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	parent, key := 0, ""
	if keys := contentKeys(body); len(keys) == 1 {
		key = keys[0]
		d.st.mu.Lock()
		if ids := d.st.active[key]; len(ids) > 0 {
			parent = ids[0] // the earliest request waiting on this cell
		}
		d.st.mu.Unlock()
	}
	id := d.st.tr.begin("cluster.dispatch", parent, key)
	defer d.st.tr.end(id)
	out := req.Clone(req.Context())
	out.Body = io.NopCloser(bytes.NewReader(body))
	out.ContentLength = int64(len(body))
	out.Header.Set(serviceHdr, strconv.Itoa(id))
	resp, err := d.base.RoundTrip(out)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(b))
	return resp, nil
}

// metrics reports the server and cluster layers from the traced window's
// spans and the workers' cache counters across it.
func (st *serviceTrace) metrics(ms *metricSet, spans []span, before, after server.CacheStats) {
	by := byName(spans)
	srv, co, disp := by["server.request"], by["cluster.request"], by["cluster.dispatch"]
	ms.add("server.request_ms", srv.medianSelfMs(), fmt.Sprintf("worker handler self time, median over %d requests", srv.n))
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	ms.add("server.cache_hits", float64(hits), "result tier, traced window, both workers")
	ms.add("server.cache_misses", float64(misses), "result tier, traced window, both workers")
	ms.add("server.cache_stores", float64(after.Stores-before.Stores), "result tier, traced window, both workers")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	ms.add("server.hit_ratio", ratio, "hits / (hits + misses)")
	ms.add("server.snapshot_hits", float64(after.SnapshotHits-before.SnapshotHits), "snapshot tier, traced window")
	ms.add("server.snapshot_stores", float64(after.SnapshotStores-before.SnapshotStores), "snapshot tier, traced window")
	ms.add("cluster.request_ms", co.medianMs(), fmt.Sprintf("coordinator handler time, median over %d requests", co.n))
	ms.add("cluster.dispatch_ms", disp.medianMs(), fmt.Sprintf("dispatch round trip, median over %d", disp.n))
	ms.add("cluster.dispatches", float64(disp.n), "traced window")
	ms.add("cluster.merge_self_ms", co.medianSelfMs(), "coordinator time minus its dispatch spans, median")
}
