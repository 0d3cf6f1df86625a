package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smtfetch/internal/experiment"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// tinyRequest is a fast 2-cell grid: one workload, one engine, two
// policies, short simulation phases.
func tinyRequest() SweepRequest {
	return SweepRequest{
		Workloads:     []string{"2_MIX"},
		Engines:       []string{"stream"},
		Policies:      []string{"ICOUNT.1.8", "RR.1.8"},
		Seeds:         []uint64{1},
		WarmupInstrs:  2_000,
		MeasureInstrs: 5_000,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func postSweep(t *testing.T, ts *httptest.Server, req SweepRequest) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, body.Bytes()
}

// The core acceptance property: posting the same sweep twice returns
// byte-identical results JSON, with the second response served entirely
// from cache, and the bytes match what the CLI path (Sweep.Run +
// MarshalJSONResults) produces for the same grid.
func TestSweepTwiceByteIdenticalAndCached(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	resp1, body1 := postSweep(t, ts, tinyRequest())
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST /sweep: %s: %s", resp1.Status, body1)
	}
	st := srv.CacheStats()
	if st.Hits != 0 || st.Misses != 2 || st.Stores != 2 {
		t.Fatalf("stats after cold sweep = %+v", st)
	}

	resp2, body2 := postSweep(t, ts, tinyRequest())
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST /sweep: %s", resp2.Status)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("repeated sweep not byte-identical:\n%s\nvs\n%s", body1, body2)
	}
	st = srv.CacheStats()
	if st.Hits != 2 || st.Misses != 2 || st.Stores != 2 {
		t.Fatalf("stats after warm sweep = %+v", st)
	}

	// Byte-for-byte equivalence with the CLI execution path.
	sw, err := tinyRequest().Sweep()
	if err != nil {
		t.Fatal(err)
	}
	results, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	cli, err := experiment.MarshalJSONResults(results)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body1, cli) {
		t.Fatalf("server response differs from CLI output:\n%s\nvs\n%s", body1, cli)
	}
}

// An overlapping grid reuses the shared cells: a second request adding
// one policy only simulates the new cell.
func TestOverlappingGridPartialHits(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if resp, body := postSweep(t, ts, tinyRequest()); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold sweep: %s: %s", resp.Status, body)
	}
	wider := tinyRequest()
	wider.Policies = append(wider.Policies, "ICOUNT.2.8")
	if resp, body := postSweep(t, ts, wider); resp.StatusCode != http.StatusOK {
		t.Fatalf("wider sweep: %s: %s", resp.Status, body)
	}
	st := srv.CacheStats()
	if st.Hits != 2 || st.Misses != 3 || st.Stores != 3 {
		t.Fatalf("stats after overlapping sweeps = %+v", st)
	}
}

func TestAsyncJobFlow(t *testing.T) {
	_, ts := newTestServer(t, Config{SyncCellLimit: -1}) // everything async

	resp, body := postSweep(t, ts, tinyRequest())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweep = %s, want 202: %s", resp.Status, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != JobRunning || st.Total != 2 {
		t.Fatalf("initial job status = %+v", st)
	}

	// The client hides the polling; give it a tight interval for tests.
	c := &Client{BaseURL: ts.URL, PollInterval: 10 * time.Millisecond}
	async, err := c.Sweep(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}

	// Poll the first job to completion and compare documents: the async
	// path must serve the same bytes as any other execution of the grid.
	deadline := time.Now().Add(30 * time.Second)
	for {
		blob, err := c.get("/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still running: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != JobDone || st.Done != st.Total || st.ResultsURL == "" {
		t.Fatalf("final job status = %+v", st)
	}
	results, err := c.get(st.ResultsURL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(results, async) {
		t.Fatal("async job results differ between the two runs")
	}
}

func TestForcedAsyncUnderSyncLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := tinyRequest()
	req.Async = true
	resp, body := postSweep(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forced-async POST = %s, want 202: %s", resp.Status, body)
	}
}

func TestResultsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := tinyRequest()
	if resp, body := postSweep(t, ts, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %s: %s", resp.Status, body)
	}
	sw, err := req.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sw.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{BaseURL: ts.URL}
	blob, err := c.get("/results/" + CacheKey(Fingerprint(sw), cells[0]))
	if err != nil {
		t.Fatal(err)
	}
	var res experiment.Result
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatal(err)
	}
	if res.Key() != cells[0].Key() || res.IPC <= 0 {
		t.Fatalf("cached cell = %+v, want key %s", res, cells[0].Key())
	}

	if _, err := c.get("/results/nope/2_MIX/stream/ICOUNT.1.8/1"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown key: %v", err)
	}
}

func TestHealthzAndStatsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := &Client{BaseURL: ts.URL}
	blob, err := c.get("/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"ok"`) {
		t.Fatalf("healthz = %s", blob)
	}
	blob, err = c.get("/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st CacheStats
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	if st.Capacity != 4096 {
		t.Fatalf("default capacity = %d", st.Capacity)
	}
}

// Persistence: a server restart with the same cache file serves the grid
// from cache without re-simulating.
func TestCacheFileSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")

	srv1, ts1 := newTestServer(t, Config{CacheFile: path})
	_, body1 := postSweep(t, ts1, tinyRequest())
	if err := srv1.SaveCache(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newTestServer(t, Config{CacheFile: path})
	resp, body2 := postSweep(t, ts2, tinyRequest())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart sweep: %s", resp.Status)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("post-restart response not byte-identical")
	}
	st := srv2.CacheStats()
	if st.Hits != 2 || st.Misses != 0 || st.Stores != 0 {
		t.Fatalf("post-restart stats = %+v (grid was re-simulated?)", st)
	}
}

// Concurrent misses on one content key are single-flighted: the leader
// executes once, waiters block and read its cached result.
func TestResolveKeySingleFlight(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := cacheRes("2_MIX", 1, 1.5)
	started := make(chan struct{})
	release := make(chan struct{})
	var execs int32
	exec := func() experiment.Result {
		atomic.AddInt32(&execs, 1)
		close(started)
		<-release
		return want
	}

	leaderDone := make(chan experiment.Result, 1)
	go func() { leaderDone <- srv.resolveKey("fp/k", exec) }()
	<-started // the leader is now mid-execution; everyone else must wait

	const waiters = 8
	results := make(chan experiment.Result, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			results <- srv.resolveKey("fp/k", func() experiment.Result {
				t.Error("waiter executed instead of waiting")
				return want
			})
		}()
	}
	close(release)
	for i := 0; i < waiters; i++ {
		if got := <-results; got != want {
			t.Fatalf("waiter got %+v", got)
		}
	}
	if got := <-leaderDone; got != want {
		t.Fatalf("leader got %+v", got)
	}
	if execs != 1 {
		t.Fatalf("exec ran %d times, want 1", execs)
	}
}

// A leader whose execution errors caches nothing; the next resolve
// retries instead of serving the failure.
func TestResolveKeyRetriesAfterError(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var execs int
	failed := cacheRes("2_MIX", 1, 0)
	failed.Error = "synthetic failure"
	got := srv.resolveKey("fp/k", func() experiment.Result { execs++; return failed })
	if got.Error == "" {
		t.Fatal("leader's error result not returned")
	}
	ok := cacheRes("2_MIX", 1, 1.5)
	if got := srv.resolveKey("fp/k", func() experiment.Result { execs++; return ok }); got != ok {
		t.Fatalf("retry got %+v", got)
	}
	if execs != 2 {
		t.Fatalf("exec ran %d times, want 2", execs)
	}
	// The ok result is now cached: a third resolve must not execute.
	if got := srv.resolveKey("fp/k", func() experiment.Result { execs++; return failed }); got != ok {
		t.Fatalf("cached resolve got %+v", got)
	}
	if execs != 2 {
		t.Fatalf("exec ran %d times after cache fill, want 2", execs)
	}
}

// Error cells are never cached, so a transient failure is retried on
// the next request instead of being pinned until eviction.
func TestErrorCellsNotCached(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	failed := experiment.Result{
		Workload: "2_MIX", Engine: "stream", Policy: "ICOUNT.1.8", Seed: 1,
		Error: "synthetic failure",
	}
	srv.storeResult("fp/"+failed.Key(), failed)
	if _, ok := srv.cache.Get("fp/" + failed.Key()); ok {
		t.Fatal("error cell was cached")
	}
	ok := failed
	ok.Error, ok.IPC = "", 1.0
	srv.storeResult("fp/"+ok.Key(), ok)
	if _, hit := srv.cache.Get("fp/" + ok.Key()); !hit {
		t.Fatal("ok cell was not cached")
	}
}

// The server's multi-seed invariant: seeds are just another cache-key
// component — the server aggregates nothing. A grid whose seed axis grows
// reuses every already-simulated (cell, seed) pair, and the client-side
// aggregate over a mixed cached/fresh response is byte-identical to the
// aggregate over a fully fresh local run of the same grid.
func TestMultiSeedRoundTripAggregatesIdentically(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	warm := tinyRequest()
	warm.Seeds = []uint64{1, 2}
	if resp, body := postSweep(t, ts, warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up sweep: %s: %s", resp.Status, body)
	}
	if st := srv.CacheStats(); st.Hits != 0 || st.Misses != 4 || st.Stores != 4 {
		t.Fatalf("stats after 2-seed sweep = %+v", st)
	}

	// Growing the seed axis to {1,2,3} re-simulates only the two seed-3
	// cells; the four (policy, seed) pairs already cached are hits.
	grown := tinyRequest()
	grown.Seeds = []uint64{1, 2, 3}
	resp, body := postSweep(t, ts, grown)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grown sweep: %s: %s", resp.Status, body)
	}
	if st := srv.CacheStats(); st.Hits != 4 || st.Misses != 6 || st.Stores != 6 {
		t.Fatalf("stats after 3-seed sweep = %+v", st)
	}

	served, err := experiment.ReadJSON(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := grown.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	a, err := experiment.MarshalAggregateJSON(experiment.Aggregate(served))
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiment.MarshalAggregateJSON(experiment.Aggregate(fresh))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("cached+fresh aggregate differs from all-fresh aggregate:\n%s\nvs\n%s", a, b)
	}
}

// warmForkRequest is a 3-cell single-group grid (one workload, one
// engine, three 1.8-shape policies) in fork mode with short phases.
func warmForkRequest(mode string) SweepRequest {
	return SweepRequest{
		Workloads:     []string{"2_MIX"},
		Engines:       []string{"stream"},
		Policies:      []string{"ICOUNT.1.8", "RR.1.8", "BRCOUNT.1.8"},
		Seeds:         []uint64{1},
		WarmupInstrs:  5_000,
		WarmupCycles:  500,
		MeasureInstrs: 8_000,
		WarmFork:      mode,
	}
}

// The snapshot tier end to end: a warm-fork sweep warms each group once
// (one snapshot store), a repeated sweep restores from the cached
// checkpoint (one snapshot hit, zero new stores), and the fork output is
// byte-identical to the rerun reference path.
func TestWarmForkSweepUsesSnapshotTier(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	resp1, body1 := postSweep(t, ts, warmForkRequest("fork"))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("fork sweep: %s: %s", resp1.Status, body1)
	}
	st := srv.CacheStats()
	if st.SnapshotStores != 1 || st.SnapshotEntries != 1 {
		t.Fatalf("snapshot stats after cold fork sweep = %+v", st)
	}
	if st.SnapshotMisses != 1 {
		t.Fatalf("expected exactly one snapshot miss (one warm group), got %+v", st)
	}

	// Repeat with a fresh fingerprint-compatible grid but a disjoint
	// policy of the same shape: result cells miss, the warm checkpoint
	// hits — the whole warm-up phase is skipped.
	second := warmForkRequest("fork")
	second.Policies = []string{"STALL.1.8"}
	resp2, body2 := postSweep(t, ts, second)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second fork sweep: %s: %s", resp2.Status, body2)
	}
	st = srv.CacheStats()
	if st.SnapshotStores != 1 {
		t.Fatalf("second sweep rebuilt the checkpoint: %+v", st)
	}
	if st.SnapshotHits < 1 {
		t.Fatalf("second sweep did not hit the snapshot tier: %+v", st)
	}

	// Fork output must be byte-identical to the rerun reference (which
	// never touches the snapshot tier).
	rerunSrv, rerunTS := newTestServer(t, Config{})
	respR, bodyR := postSweep(t, rerunTS, warmForkRequest("rerun"))
	if respR.StatusCode != http.StatusOK {
		t.Fatalf("rerun sweep: %s: %s", respR.Status, bodyR)
	}
	if !bytes.Equal(body1, bodyR) {
		t.Fatalf("fork response differs from rerun reference:\n%s\nvs\n%s", body1, bodyR)
	}
	if st := rerunSrv.CacheStats(); st.SnapshotStores != 0 || st.SnapshotMisses != 0 {
		t.Fatalf("rerun mode touched the snapshot tier: %+v", st)
	}
}

// Snapshot blobs survive a server restart through the cache file, so a
// restarted server forks sweeps without re-warming.
func TestSnapshotTierSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")

	srv1, ts1 := newTestServer(t, Config{CacheFile: path})
	if resp, body := postSweep(t, ts1, warmForkRequest("fork")); resp.StatusCode != http.StatusOK {
		t.Fatalf("fork sweep: %s: %s", resp.Status, body)
	}
	if err := srv1.SaveCache(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newTestServer(t, Config{CacheFile: path})
	if st := srv2.CacheStats(); st.SnapshotEntries != 1 {
		t.Fatalf("snapshot entries after restart = %+v", st)
	}
	// A same-shape sweep with a fresh policy restores instead of warming.
	req := warmForkRequest("fork")
	req.Policies = []string{"MISSCOUNT.1.8"}
	if resp, body := postSweep(t, ts2, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart sweep: %s: %s", resp.Status, body)
	}
	if st := srv2.CacheStats(); st.SnapshotStores != 0 || st.SnapshotHits < 1 {
		t.Fatalf("post-restart sweep re-warmed: %+v", st)
	}
}
