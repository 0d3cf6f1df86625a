package experiment

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"smtfetch/internal/config"
	"smtfetch/internal/core"
)

// warmForkGrid is a small two-group grid: three policies share the 2.8
// shape (one warm group) and one uses 1.8 (a second group, since
// SetPolicy cannot change bandwidth). FLUSH is included deliberately —
// its replay machinery is the policy the canonical-ICOUNT warm-up
// protects against.
func warmForkGrid(mode string) *Sweep {
	return &Sweep{
		Workloads: []string{"2_MIX"},
		Engines:   []config.Engine{config.GShareBTB},
		Policies: []config.FetchPolicy{
			config.ICount28,
			config.RR28,
			{Policy: config.Flush, Threads: 2, Width: 8},
			config.ICount18,
		},
		WarmupInstrs:  15_000,
		WarmupCycles:  1_000,
		MeasureInstrs: 25_000,
		Jobs:          2,
		WarmFork:      mode,
	}
}

func TestWarmForkMatchesRerunByteForByte(t *testing.T) {
	fork, err := warmForkGrid(WarmForkFork).Run()
	if err != nil {
		t.Fatalf("fork sweep: %v", err)
	}
	rerun, err := warmForkGrid(WarmForkRerun).Run()
	if err != nil {
		t.Fatalf("rerun sweep: %v", err)
	}
	fb, err := MarshalJSONResults(fork)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := MarshalJSONResults(rerun)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb, rb) {
		t.Fatalf("snapshot-forked sweep differs from rerun reference:\nfork:\n%s\nrerun:\n%s", fb, rb)
	}
	for _, r := range fork {
		if r.IPC <= 0 {
			t.Fatalf("cell %s: non-positive IPC %v", r.Key(), r.IPC)
		}
	}
}

func TestWarmForkWithSamplingMatchesRerun(t *testing.T) {
	mk := func(mode string) *Sweep {
		sw := warmForkGrid(mode)
		sw.Sample = "detail:2000,skip:6000"
		return sw
	}
	fork, err := mk(WarmForkFork).Run()
	if err != nil {
		t.Fatalf("fork sweep: %v", err)
	}
	rerun, err := mk(WarmForkRerun).Run()
	if err != nil {
		t.Fatalf("rerun sweep: %v", err)
	}
	fb, _ := MarshalJSONResults(fork)
	rb, _ := MarshalJSONResults(rerun)
	if !bytes.Equal(fb, rb) {
		t.Fatalf("sampled fork sweep differs from rerun reference:\nfork:\n%s\nrerun:\n%s", fb, rb)
	}
	for _, r := range fork {
		if r.SampleIntervals < 2 {
			t.Fatalf("cell %s: SampleIntervals = %d, want >= 2", r.Key(), r.SampleIntervals)
		}
		if r.IPCCI95 <= 0 {
			t.Fatalf("cell %s: IPCCI95 = %v, want > 0", r.Key(), r.IPCCI95)
		}
	}
}

func TestWarmForkSnapshotSourceSeesEachKeyOnce(t *testing.T) {
	sw := warmForkGrid(WarmForkFork)
	var (
		mu     sync.Mutex
		calls  = map[string]int{}
		builds = map[string]int{}
	)
	sw.SnapshotSource = func(key string, build func() ([]byte, error)) ([]byte, error) {
		mu.Lock()
		calls[key]++
		mu.Unlock()
		blob, err := build()
		mu.Lock()
		builds[key]++
		mu.Unlock()
		return blob, err
	}
	if _, err := sw.Run(); err != nil {
		t.Fatalf("fork sweep: %v", err)
	}
	// Two T.W shapes => two warm groups => two keys, each consulted and
	// built exactly once despite four cells and two workers (the per-run
	// memo singleflights the pool).
	if len(calls) != 2 {
		t.Fatalf("SnapshotSource saw %d keys (%v), want 2", len(calls), calls)
	}
	for k, n := range calls {
		if n != 1 || builds[k] != 1 {
			t.Fatalf("key %s: %d calls, %d builds, want 1 each", k, n, builds[k])
		}
	}
}

// A failed warm build is not memoized: the next cell that needs the
// checkpoint retries it, and a later RunCells on the same Sweep reuses
// the rebuilt checkpoint instead of returning the first failure.
func TestWarmForkFailedBuildIsRetried(t *testing.T) {
	sw := warmForkGrid(WarmForkFork)
	var calls atomic.Int32
	sw.SnapshotSource = func(key string, build func() ([]byte, error)) ([]byte, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("transient snapshot store failure")
		}
		return build()
	}
	cells, err := sw.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	first, _ := sw.RunCells(cells, nil)
	failed := 0
	for _, r := range first {
		if r.Error != "" {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("first run: %d failed cells, want 1 (only the cell whose build failed)", failed)
	}
	second, err := sw.RunCells(cells, nil)
	if err != nil {
		t.Fatalf("second run on the same Sweep: %v", err)
	}
	for _, r := range second {
		if r.IPC <= 0 {
			t.Fatalf("cell %s: non-positive IPC %v", r.Key(), r.IPC)
		}
	}
	// Two keys: the failed build, its retry, and the other group's build.
	// The second run is served from the memo.
	if n := calls.Load(); n != 3 {
		t.Fatalf("SnapshotSource called %d times, want 3", n)
	}
}

func TestWarmKeyComponents(t *testing.T) {
	base := &Sweep{WarmupInstrs: 10_000, WarmupCycles: 500}
	cell := Cell{Workload: "2_MIX", Engine: config.GShareBTB, Policy: config.ICount28, Seed: 1}

	// Policy heuristics canonicalize away: every policy of one T.W shape
	// shares the group's warm checkpoint.
	flush := cell
	flush.Policy = config.FetchPolicy{Policy: config.Flush, Threads: 2, Width: 8}
	if base.WarmKey(cell) != base.WarmKey(flush) {
		t.Fatal("policy heuristic split the warm key")
	}

	// Everything that shapes warmed state must split it.
	diffs := map[string]func(){}
	shape := cell
	shape.Policy = config.ICount18
	diffs["T.W shape"] = func() {
		if base.WarmKey(cell) == base.WarmKey(shape) {
			t.Error("different T.W shapes share a warm key")
		}
	}
	engine := cell
	engine.Engine = config.StreamFetch
	diffs["engine"] = func() {
		if base.WarmKey(cell) == base.WarmKey(engine) {
			t.Error("different engines share a warm key")
		}
	}
	seed := cell
	seed.Seed = 2
	diffs["seed"] = func() {
		if base.WarmKey(cell) == base.WarmKey(seed) {
			t.Error("different seeds share a warm key")
		}
	}
	diffs["warmup instrs"] = func() {
		other := &Sweep{WarmupInstrs: 20_000, WarmupCycles: 500}
		if base.WarmKey(cell) == other.WarmKey(cell) {
			t.Error("different -warmup lengths share a warm key")
		}
	}
	// The satellite regression: -warmup-cycles is an explicit component of
	// the snapshot key, so changing it can never be served a checkpoint
	// warmed for a different cycle budget.
	diffs["warmup cycles"] = func() {
		other := &Sweep{WarmupInstrs: 10_000, WarmupCycles: 501}
		if base.WarmKey(cell) == other.WarmKey(cell) {
			t.Error("different -warmup-cycles share a warm key")
		}
	}
	for _, check := range diffs {
		check()
	}

	// What only the measured phase reads, the warm-fork mode (fork and
	// rerun warm identically) and the machine's engine and policy fields
	// (every cell overrides them; the canonical cell key carries both)
	// must not split it, or cells that share a warm-up would each build
	// their own checkpoint.
	mc := config.Default()
	mc.Engine = config.StreamFetch
	mc.FetchPolicy = config.FetchPolicy{Policy: config.Flush, Threads: 2, Width: 8}
	for name, other := range map[string]*Sweep{
		"measure instrs":         {WarmupInstrs: 10_000, WarmupCycles: 500, MeasureInstrs: 30_000},
		"sample":                 {WarmupInstrs: 10_000, WarmupCycles: 500, Sample: "detail:1000,skip:9000"},
		"warm-fork mode":         {WarmupInstrs: 10_000, WarmupCycles: 500, WarmFork: WarmForkRerun},
		"machine engine, policy": {WarmupInstrs: 10_000, WarmupCycles: 500, Machine: &mc},
	} {
		if base.WarmKey(cell) != other.WarmKey(cell) {
			t.Errorf("%s split the warm key", name)
		}
	}
}

func TestSweepRejectsBadSampleAndWarmFork(t *testing.T) {
	bad := &Sweep{Workloads: []string{"2_MIX"}, Sample: "detail:0,skip:100"}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero detail length accepted")
	}
	bad = &Sweep{Workloads: []string{"2_MIX"}, Sample: "nonsense"}
	if err := bad.Validate(); err == nil {
		t.Fatal("malformed sample spec accepted")
	}
	bad = &Sweep{Workloads: []string{"2_MIX"}, WarmFork: "sideways"}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown warm-fork mode accepted")
	}
}

// The server's snapshot cache tier keys blobs by the string WarmKey
// produces, so the snapshot format version must be a live component of
// that string: after a format bump, a server restarted over an old cache
// file must miss rather than serve a stale blob to a decoder that cannot
// read it.
func TestWarmKeySnapshotVersionComponent(t *testing.T) {
	s := &Sweep{WarmupInstrs: 10_000, WarmupCycles: 500}
	cell := Cell{Workload: "2_MIX", Engine: config.GShareBTB, Policy: config.ICount28, Seed: 1}

	if s.WarmKey(cell) != s.warmKeyAt(core.SnapshotVersion, cell) {
		t.Fatal("WarmKey does not use the current core.SnapshotVersion")
	}
	if s.warmKeyAt(core.SnapshotVersion, cell) == s.warmKeyAt(core.SnapshotVersion+1, cell) {
		t.Fatal("a snapshot format bump does not change the warm key")
	}
}

// TestSnapshotSourceKeyedByWarmKey pins the contract the server's
// snapshot tier relies on: every key handed to SnapshotSource is exactly
// the group's WarmKey, so whatever WarmKey folds in (including the
// snapshot version, above) is folded into the server-side cache key too.
func TestSnapshotSourceKeyedByWarmKey(t *testing.T) {
	s := warmForkGrid(WarmForkFork)
	var mu sync.Mutex
	seen := make(map[string]bool)
	s.SnapshotSource = func(key string, build func() ([]byte, error)) ([]byte, error) {
		mu.Lock()
		seen[key] = true
		mu.Unlock()
		return build()
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("SnapshotSource never consulted")
	}
	for _, c := range s.Cells() {
		delete(seen, s.WarmKey(c))
	}
	for key := range seen {
		t.Errorf("SnapshotSource saw key %q that is no cell's WarmKey", key)
	}
}
