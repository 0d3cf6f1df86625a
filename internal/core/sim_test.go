package core

import (
	"strings"
	"testing"

	"smtfetch/internal/bench"
	"smtfetch/internal/config"
	"smtfetch/internal/pipeline"
	"smtfetch/internal/prog"
	"smtfetch/internal/rng"
)

// newTestSim builds a small multi-threaded simulator with plenty of
// mispredictions and cache misses (2_MIX pairs an ILP benchmark with a
// memory-bound one).
func newTestSim(t testing.TB, engine config.Engine, seed uint64) *Sim {
	return newWorkloadSim(t, "2_MIX", engine, config.Default().FetchPolicy, seed)
}

// newWorkloadSim builds a simulator for a Table 2 workload the way
// smtfetch.New does: one SplitMix64 chain from seed gives each thread's
// program seed, then the simulator seed.
func newWorkloadSim(t testing.TB, workload string, engine config.Engine, fp config.FetchPolicy, seed uint64) *Sim {
	t.Helper()
	cfg := config.Default()
	cfg.Engine = engine
	cfg.FetchPolicy = fp
	w, err := bench.WorkloadByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	st := seed
	programs := make([]*prog.Program, len(w.Benchmarks))
	for i, name := range w.Benchmarks {
		programs[i] = prog.Build(bench.MustProfile(name), rng.SplitMix64(&st))
	}
	s, err := New(cfg, programs, rng.SplitMix64(&st))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// liveUOps collects every uop currently referenced by a pipeline container.
// fetchBuf, frontPipe, the ROB, and the FLUSH-policy replay queues
// partition the live set (issue queues, exec list and pendingDecode only
// hold uops that are also in the ROB or frontPipe); limbo uops are
// squashed but still draining out of the lazy containers.
func (s *Sim) liveUOps() map[*pipeline.UOp]string {
	live := map[*pipeline.UOp]string{}
	add := func(u *pipeline.UOp, where string) {
		if u != nil {
			live[u] = where
		}
	}
	for i := 0; i < s.fetchBuf.Len(); i++ {
		add(s.fetchBuf.At(i), "fetchBuf")
	}
	for i := 0; i < s.frontPipe.Len(); i++ {
		add(s.frontPipe.At(i), "frontPipe")
	}
	s.rob.Each(func(u *pipeline.UOp) { add(u, "rob") })
	for _, q := range s.iqs {
		q.Each(func(u *pipeline.UOp) { add(u, "iq") })
	}
	for _, u := range s.execList {
		add(u, "execList")
	}
	for _, u := range s.pendingDecode {
		add(u, "pendingDecode")
	}
	for _, u := range s.limboCur {
		add(u, "limboCur")
	}
	for _, u := range s.limboOld {
		add(u, "limboOld")
	}
	for t := range s.threads {
		ts := &s.threads[t]
		for _, u := range ts.replay[ts.replayPos:] {
			add(u, "replay")
		}
	}
	return live
}

// TestFreeListNeverHoldsLiveUOp runs the simulator and repeatedly checks
// that the uop free list is disjoint from every container that can still
// reach a uop — the aliasing bug class a recycling arena can introduce.
func TestFreeListNeverHoldsLiveUOp(t *testing.T) {
	for _, eng := range []config.Engine{config.GShareBTB, config.StreamFetch} {
		s := newTestSim(t, eng, 0xA11A5)
		for step := 0; step < 200; step++ {
			s.RunCycles(100)
			live := s.liveUOps()
			seen := map[*pipeline.UOp]bool{}
			for _, u := range s.freeUOps {
				if where, ok := live[u]; ok {
					t.Fatalf("%v, cycle %d: free list holds uop still referenced by %s", eng, s.Cycles(), where)
				}
				if seen[u] {
					t.Fatalf("%v, cycle %d: uop appears twice in the free list", eng, s.Cycles())
				}
				seen[u] = true
			}
		}
		if s.Stats().Squashed == 0 {
			t.Fatalf("%v: no squashes happened; recycling path untested", eng)
		}
		if len(s.freeUOps) == 0 {
			t.Fatalf("%v: free list empty after run; recycling inert", eng)
		}
	}
}

// TestNoGhostCommits drives heavy wrong-path execution: commit() panics if
// a ghost uop ever reaches the ROB head after recovery, so surviving the
// run with progress is the assertion.
func TestNoGhostCommits(t *testing.T) {
	for _, eng := range []config.Engine{config.GShareBTB, config.GSkewFTB, config.StreamFetch} {
		s := newTestSim(t, eng, 0x60057)
		st := s.Run(30_000, 2_000_000)
		if st.Committed < 30_000 {
			t.Fatalf("%v: only %d commits in 2M cycles", eng, st.Committed)
		}
		if st.Squashed == 0 {
			t.Fatalf("%v: no wrong-path work was squashed; recovery untested", eng)
		}
	}
}

// TestICountConsistency checks the ICOUNT policy's book-keeping invariant:
// each thread's icount equals the number of its in-flight uops still
// marked InICount (fetched but not yet issued or squashed).
func TestICountConsistency(t *testing.T) {
	s := newTestSim(t, config.GShareBTB, 0x1C0)
	for step := 0; step < 100; step++ {
		s.RunCycles(250)
		want := make([]int, s.nthreads)
		for u := range s.liveUOps() {
			if u.InICount {
				if u.Squashed {
					t.Fatalf("cycle %d: squashed uop still counted by ICOUNT", s.Cycles())
				}
				want[u.Thread]++
			}
		}
		for tid := range s.threads {
			if got := s.threads[tid].icount; got != want[tid] {
				t.Fatalf("cycle %d: thread %d icount = %d, want %d", s.Cycles(), tid, got, want[tid])
			}
		}
	}
}

// TestRecoveryDrainsToConsistency runs past many recoveries and then checks
// that no squashed uop is reachable from the ROB or issue queues (recovery
// must remove them immediately, not lazily).
func TestRecoveryDrainsToConsistency(t *testing.T) {
	s := newTestSim(t, config.GShareBTB, 0xDEC0)
	s.RunCycles(20_000)
	s.rob.Each(func(u *pipeline.UOp) {
		if u.Squashed {
			t.Fatal("squashed uop still in ROB")
		}
	})
	for _, q := range s.iqs {
		q.Each(func(u *pipeline.UOp) {
			if u.Squashed {
				t.Fatal("squashed uop still in an issue queue")
			}
		})
	}
	if s.Stats().Squashed == 0 {
		t.Fatal("run produced no squashes; test is vacuous")
	}
}

// TestResetStatsExcludesWarmup checks that ResetStats gives a clean slate:
// cycle and commit counters afterwards reflect only post-reset work.
func TestResetStatsExcludesWarmup(t *testing.T) {
	s := newTestSim(t, config.GShareBTB, 7)
	s.Run(5_000, 1_000_000)
	if s.Stats().Cycles == 0 || s.Stats().Committed < 5_000 {
		t.Fatal("warm-up phase did not run")
	}
	s.ResetStats()
	if c := s.Stats().Cycles; c != 0 {
		t.Fatalf("Cycles = %d right after ResetStats, want 0", c)
	}
	before := s.Cycles()
	st := s.RunCycles(1_234)
	if s.Cycles() != before+1_234 {
		t.Fatalf("RunCycles advanced %d cycles, want 1234", s.Cycles()-before)
	}
	if st.Cycles != 1_234 {
		t.Fatalf("post-reset Cycles = %d, want exactly the measured 1234", st.Cycles)
	}
	if st.Committed == 0 {
		t.Fatal("no commits during measurement")
	}
	for i := range st.PerThread {
		if st.PerThread[i].Committed > st.Committed {
			t.Fatalf("per-thread committed exceeds total after reset")
		}
	}
	// The uops in flight at the reset were fetched before it; conservation
	// still balances, also on a simulator restored from a snapshot.
	if err := s.CheckFlow(); err != nil {
		t.Fatalf("after reset: %v", err)
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r := newTestSim(t, config.GShareBTB, 7)
	if err := r.Restore(blob); err != nil {
		t.Fatal(err)
	}
	r.RunCycles(1_000)
	if err := r.CheckFlow(); err != nil {
		t.Fatalf("after restore: %v", err)
	}
}

// TestNewRejectsMachineBeyondDependenceRing covers the one structural
// limit no config field states: a thread's in-flight window plus the
// largest dependence distance must fit the dependence ring, or a producer
// could lose its slot while a consumer still needs it.
func TestNewRejectsMachineBeyondDependenceRing(t *testing.T) {
	programs := []*prog.Program{prog.Build(bench.MustProfile("gzip"), 1)}
	for name, mutate := range map[string]func(*config.Config){
		"rob":             func(c *config.Config) { c.ROBSize = 1 << ringBits },
		"fetch buffer":    func(c *config.Config) { c.FetchBufferSize = 1 << ringBits },
		"stage overflow":  func(c *config.Config) { c.DecodeStages, c.RenameStages = 1<<61, 1<<61 },
		"decode capacity": func(c *config.Config) { c.DecodeStages, c.DecodeWidth = 200, 20 },
	} {
		cfg := config.Default()
		mutate(&cfg)
		if _, err := New(cfg, programs, 1); err == nil || !strings.Contains(err.Error(), "dependence ring") {
			t.Errorf("%s: New returned %v, want a dependence-ring error", name, err)
		}
	}
	cfg := config.Default()
	cfg.ROBSize = 1<<ringBits - prog.MaxDepDist - cfg.FetchBufferSize - decodeCapacity(&cfg)
	if _, err := New(cfg, programs, 1); err != nil {
		t.Errorf("largest ROB that fits: %v", err)
	}
}

// TestRestoreRejectsRingOverflow feeds Restore a blob whose fetch buffer or
// decode/rename pipe holds more uops than the receiver's ring can: it must
// fail with an error, not panic in Push.
func TestRestoreRejectsRingOverflow(t *testing.T) {
	a := newTestSim(t, config.StreamFetch, 0xF11)
	a.RunCycles(5_000)
	if a.fetchBuf.Len() < 2 || a.frontPipe.Len() < 2 {
		t.Fatalf("snapshot point holds %d fetch-buffer and %d decode-pipe uops, need 2 of each", a.fetchBuf.Len(), a.frontPipe.Len())
	}
	blob, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, ring := range []string{"fetch buffer", "decode/rename pipe"} {
		r := newTestSim(t, config.StreamFetch, 0xF11)
		if ring == "fetch buffer" {
			r.fetchBuf = pipeline.NewUOpRing(1)
		} else {
			r.frontPipe = pipeline.NewUOpRing(1)
		}
		if err := r.Restore(blob); err == nil || !strings.Contains(err.Error(), "capacity") {
			t.Errorf("%s over capacity: Restore returned %v, want a capacity error", ring, err)
		}
	}
}

// TestDeterministicReplay runs the same configuration twice and requires
// identical cycle-by-cycle outcomes — the property every refactor of the
// hot loop must preserve.
func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		s := newTestSim(t, config.StreamFetch, 0xFEED)
		st := s.Run(20_000, 1_000_000)
		return s.Cycles(), st.Committed, st.Squashed
	}
	c1, m1, q1 := run()
	c2, m2, q2 := run()
	if c1 != c2 || m1 != m2 || q1 != q2 {
		t.Fatalf("replay diverged: (%d,%d,%d) vs (%d,%d,%d)", c1, m1, q1, c2, m2, q2)
	}
}
