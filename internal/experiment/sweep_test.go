package experiment

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"
	"testing"

	"smtfetch/internal/bench"
	"smtfetch/internal/config"
)

func TestCellsFullGridDefaults(t *testing.T) {
	var s Sweep
	cells := s.Cells()
	want := len(bench.WorkloadNames()) * len(config.Engines()) * len(config.FetchPolicies())
	if len(cells) != want {
		t.Fatalf("default grid has %d cells, want %d", len(cells), want)
	}
	// Deterministic order: first axis is workload, innermost is seed.
	if cells[0].Workload != "2_ILP" || cells[0].Engine != config.GShareBTB {
		t.Fatalf("first cell = %+v", cells[0])
	}
	seen := map[string]bool{}
	for _, c := range cells {
		k := c.Key()
		if seen[k] {
			t.Fatalf("duplicate cell %s", k)
		}
		seen[k] = true
	}
}

func TestCellsFilter(t *testing.T) {
	s := Sweep{
		Workloads: []string{"2_MIX", "4_MIX"},
		Seeds:     []uint64{1, 2},
		Filter:    func(c Cell) bool { return c.Engine == config.StreamFetch },
	}
	cells := s.Cells()
	want := 2 * 1 * len(config.FetchPolicies()) * 2
	if len(cells) != want {
		t.Fatalf("filtered grid has %d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.Engine != config.StreamFetch {
			t.Fatalf("filter leaked %+v", c)
		}
	}
}

func TestValidateRejectsBadWorkload(t *testing.T) {
	s := Sweep{Workloads: []string{"9_NOPE"}}
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted an unknown workload")
	}
	empty := Sweep{Filter: func(Cell) bool { return false }}
	if err := empty.Validate(); err == nil {
		t.Fatal("Validate accepted an empty grid")
	}
	badPolicy := Sweep{Policies: []config.FetchPolicy{{Policy: config.ICount, Threads: 9, Width: 8}}}
	if err := badPolicy.Validate(); err == nil {
		t.Fatal("Validate accepted a bad fetch policy")
	}
}

// TestCellSeedDependsOnlyOnIdentity: a cell's program identity is its
// (workload, seed). Engine and policy are treatments applied to those
// programs, so they must not move the seed; the workload and the
// replication seed must.
func TestCellSeedDependsOnlyOnIdentity(t *testing.T) {
	c := Cell{Workload: "2_MIX", Engine: config.StreamFetch, Policy: config.ICount116, Seed: 1}
	if CellSeed(c) != CellSeed(c) {
		t.Fatal("CellSeed not stable")
	}
	if CellSeed(c) == 0 {
		t.Fatal("CellSeed produced the reserved 0 value")
	}
	same := []Cell{
		{Workload: c.Workload, Engine: config.GShareBTB, Policy: c.Policy, Seed: c.Seed},
		{Workload: c.Workload, Engine: c.Engine, Policy: config.ICount18, Seed: c.Seed},
		{Workload: c.Workload, Engine: config.GSkewFTB, Policy: config.FetchPolicy{Policy: config.Flush, Threads: 2, Width: 8}, Seed: c.Seed},
	}
	for _, v := range same {
		if CellSeed(v) != CellSeed(c) {
			t.Errorf("CellSeed differs between %s and %s: engine and policy must not change the programs", c.Key(), v.Key())
		}
	}
	differ := []Cell{
		{Workload: "4_MIX", Engine: c.Engine, Policy: c.Policy, Seed: c.Seed},
		{Workload: c.Workload, Engine: c.Engine, Policy: c.Policy, Seed: 2},
	}
	for _, v := range differ {
		if CellSeed(v) == CellSeed(c) {
			t.Errorf("CellSeed collision between %s and %s", c.Key(), v.Key())
		}
	}
}

// fakeRunner replaces the simulator with a deterministic function of the
// cell so pool mechanics can be tested in microseconds. It hashes the
// whole cell key (CellSeed ignores engine and policy), so every cell of a
// grid gets its own fake figures.
func fakeRunner(s *Sweep, c Cell) Result {
	h := fnv.New64a()
	h.Write([]byte(c.Key()))
	seed := h.Sum64()
	return Result{
		Workload: c.Workload,
		Engine:   c.Engine.String(),
		Policy:   c.Policy.String(),
		Seed:     c.Seed,
		IPC:      float64(seed%1000) / 100,
		IPFC:     float64(seed%2000) / 100,
	}
}

func withFakeRunner(t *testing.T) {
	t.Helper()
	orig := runner
	runner = fakeRunner
	t.Cleanup(func() { runner = orig })
}

func TestRunParallelismInvariant(t *testing.T) {
	withFakeRunner(t)
	newSweep := func(jobs int) Sweep {
		return Sweep{
			Workloads: []string{"2_MIX", "4_MIX", "8_MIX"},
			Seeds:     []uint64{1, 2, 3},
			Jobs:      jobs,
		}
	}
	var outputs []string
	for _, jobs := range []int{1, 4, 16} {
		s := newSweep(jobs)
		results, err := s.Run()
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		b, err := MarshalJSONResults(results)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, string(b))
	}
	if outputs[0] != outputs[1] || outputs[1] != outputs[2] {
		t.Fatal("sweep JSON differs across worker counts")
	}
}

func TestRunCellsResultSource(t *testing.T) {
	var executed int32
	orig := runner
	runner = func(s *Sweep, c Cell) Result {
		atomic.AddInt32(&executed, 1)
		return fakeRunner(s, c)
	}
	t.Cleanup(func() { runner = orig })

	s := Sweep{Workloads: []string{"2_MIX"}, Jobs: 4}
	cells, err := s.Prepare()
	if err != nil {
		t.Fatal(err)
	}

	// A source that knows every other cell: only the misses may execute.
	var hits int32
	src := func(c Cell) (Result, bool) {
		if c.Policy == config.ICount18 || c.Policy == config.ICount28 {
			atomic.AddInt32(&hits, 1)
			r := fakeRunner(&s, c)
			r.IPFC = -1 // marker proving the source's result is used verbatim
			return r, true
		}
		return Result{}, false
	}
	results, err := s.RunCells(cells, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cells) {
		t.Fatalf("%d results for %d cells", len(results), len(cells))
	}
	if int(hits)+int(executed) != len(cells) {
		t.Fatalf("hits %d + executed %d != %d cells", hits, executed, len(cells))
	}
	if hits == 0 || executed == 0 {
		t.Fatalf("expected a mix of source hits and executions, got hits=%d executed=%d", hits, executed)
	}
	for _, r := range results {
		fromSource := r.IPFC == -1
		if wantSource := r.Policy == "ICOUNT.1.8" || r.Policy == "ICOUNT.2.8"; fromSource != wantSource {
			t.Fatalf("cell %s: fromSource=%v, want %v", r.Key(), fromSource, wantSource)
		}
	}

	// A full source means zero executions, and Run (nil source) still
	// executes everything.
	executed = 0
	if _, err := s.RunCells(cells, func(c Cell) (Result, bool) { return fakeRunner(&s, c), true }); err != nil {
		t.Fatal(err)
	}
	if executed != 0 {
		t.Fatalf("full source still executed %d cells", executed)
	}
}

func TestPrepareMatchesCellsAndValidate(t *testing.T) {
	s := Sweep{Workloads: []string{"2_MIX", "4_MIX"}}
	cells, err := s.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	direct := s.Cells()
	if len(cells) != len(direct) {
		t.Fatalf("Prepare returned %d cells, Cells %d", len(cells), len(direct))
	}
	for i := range cells {
		if cells[i] != direct[i] {
			t.Fatalf("cell %d differs: %+v vs %+v", i, cells[i], direct[i])
		}
	}
	bad := Sweep{Workloads: []string{"9_NOPE"}}
	if _, err := bad.Prepare(); err == nil {
		t.Fatal("Prepare accepted an unknown workload")
	}
}

func TestRunResultsSorted(t *testing.T) {
	withFakeRunner(t)
	s := Sweep{Workloads: []string{"4_MIX", "2_MIX"}, Jobs: 8}
	results, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		if results[i-1].Key() >= results[i].Key() {
			t.Fatalf("results not strictly sorted: %q then %q", results[i-1].Key(), results[i].Key())
		}
	}
}

func TestRunProgressCallback(t *testing.T) {
	withFakeRunner(t)
	var calls int
	var last int
	s := Sweep{
		Workloads: []string{"2_MIX"},
		Jobs:      4,
		OnResult: func(done, total int, r Result) {
			calls++
			if done != calls {
				t.Errorf("done = %d on call %d", done, calls)
			}
			last = total
		},
	}
	results, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(results) || last != len(results) {
		t.Fatalf("callback calls=%d total=%d, want %d", calls, last, len(results))
	}
}

func TestRunCollectsCellErrors(t *testing.T) {
	orig := runner
	runner = func(s *Sweep, c Cell) Result {
		r := fakeRunner(s, c)
		if c.Engine == config.GSkewFTB {
			r.Error = "synthetic failure"
			r.IPC = 0
		}
		return r
	}
	t.Cleanup(func() { runner = orig })

	s := Sweep{Workloads: []string{"2_MIX"}, Jobs: 2}
	results, err := s.Run()
	if err == nil {
		t.Fatal("Run swallowed cell errors")
	}
	if !strings.Contains(err.Error(), "synthetic failure") {
		t.Fatalf("aggregate error %q lacks cell message", err)
	}
	var failed int
	for _, r := range results {
		if r.Error != "" {
			failed++
		}
	}
	if failed != len(config.FetchPolicies()) {
		t.Fatalf("%d failed cells, want %d", failed, len(config.FetchPolicies()))
	}
}

func TestTableAligned(t *testing.T) {
	withFakeRunner(t)
	s := Sweep{Workloads: []string{"2_MIX"}, Jobs: 2}
	results, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	tbl := Table(results)
	lines := strings.Split(strings.TrimRight(tbl, "\n"), "\n")
	if len(lines) != len(results)+1 {
		t.Fatalf("table has %d lines, want %d", len(lines), len(results)+1)
	}
	if !strings.HasPrefix(lines[0], "WORKLOAD") {
		t.Fatalf("missing header: %q", lines[0])
	}
	// Columns align: every row's ENGINE column starts at the same offset.
	off := strings.Index(lines[0], "ENGINE")
	for i, ln := range lines[1:] {
		if len(ln) < off {
			t.Fatalf("row %d too short: %q", i+1, ln)
		}
		if ln[off-1] != ' ' {
			t.Fatalf("row %d misaligned at ENGINE column: %q", i+1, ln)
		}
	}
}

func TestJSONRoundTripAndSchemaVersion(t *testing.T) {
	withFakeRunner(t)
	s := Sweep{Workloads: []string{"2_MIX"}, Jobs: 2}
	results, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalJSONResults(results)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(results) {
		t.Fatalf("round trip returned %d results, want %d", len(back), len(results))
	}
	for i := range back {
		if back[i].Key() != results[i].Key() || back[i].IPC != results[i].IPC {
			t.Fatalf("result %d changed in round trip", i)
		}
	}
	// Wrong schema version is rejected.
	bad := strings.Replace(string(b), fmt.Sprintf("\"schema_version\": %d", SchemaVersion), "\"schema_version\": 999", 1)
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("ReadJSON accepted a wrong schema version")
	}
}
