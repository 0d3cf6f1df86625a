package core

import (
	"testing"

	"smtfetch/internal/config"
	"smtfetch/internal/ftq"
)

// newPolicySim builds a simulator for the given fetch policy on a
// memory-heavy workload (4_MIX mixes ILP and memory-bound threads, so the
// long-latency-load policies actually trigger).
func newPolicySim(t testing.TB, pol config.Policy, seed uint64) *Sim {
	return newWorkloadSim(t, "4_MIX", config.Default().Engine, config.FetchPolicy{Policy: pol, Threads: 2, Width: 8}, seed)
}

// TestPolicyFamilyProgressAndDeterminism runs every policy and requires
// forward progress plus cycle-exact replay — the two properties a new
// policy must not break.
func TestPolicyFamilyProgressAndDeterminism(t *testing.T) {
	for _, pol := range config.Policies() {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			run := func() (uint64, uint64, uint64, uint64) {
				s := newPolicySim(t, pol, 0xFA111)
				st := s.Run(25_000, 3_000_000)
				return s.Cycles(), st.Committed, st.Squashed, st.Flushes
			}
			c1, m1, q1, f1 := run()
			c2, m2, q2, f2 := run()
			if c1 != c2 || m1 != m2 || q1 != q2 || f1 != f2 {
				t.Fatalf("replay diverged: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
					c1, m1, q1, f1, c2, m2, q2, f2)
			}
			if m1 < 25_000 {
				t.Fatalf("only %d commits in 3M cycles", m1)
			}
			if pol == config.Flush {
				if f1 == 0 {
					t.Fatal("FLUSH policy never flushed on a memory-heavy workload")
				}
			} else if f1 != 0 {
				t.Fatalf("policy %v reported %d flushes; only FLUSH may flush", pol, f1)
			}
		})
	}
}

// TestFlushReplayAccounting pins the FLUSH policy's bookkeeping: every
// flushed uop is either replayed or squashed (none lost, none duplicated),
// and the run commits the requested instructions.
func TestFlushReplayAccounting(t *testing.T) {
	s := newPolicySim(t, config.Flush, 0xF1005)
	st := s.Run(40_000, 3_000_000)
	if st.Flushes == 0 || st.FlushedUOps == 0 {
		t.Fatalf("no flush events (flushes=%d, uops=%d)", st.Flushes, st.FlushedUOps)
	}
	if st.Replayed == 0 {
		t.Fatal("flushed uops were never replayed")
	}
	if st.Replayed > st.FlushedUOps {
		t.Fatalf("replayed (%d) exceeds flushed (%d): double delivery", st.Replayed, st.FlushedUOps)
	}
	// Whatever is still pending at the end is bounded by one thread's
	// in-flight window.
	pending := 0
	for t := range s.threads {
		ts := &s.threads[t]
		pending += len(ts.replay) - ts.replayPos
	}
	if max := s.cfg.ROBSize + 3*s.cfg.FetchBufferSize; pending > max {
		t.Fatalf("pending replay %d exceeds in-flight bound %d", pending, max)
	}
}

// TestPolicySignalConsistency is TestICountConsistency for the new
// signals: after arbitrary execution under each policy that consumes a
// signal, the per-thread counters must equal a recount over the live uops.
func TestPolicySignalConsistency(t *testing.T) {
	for _, pol := range []config.Policy{config.BRCount, config.MissCount, config.Stall, config.Flush} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			s := newPolicySim(t, pol, 0x51677+uint64(pol))
			for step := 0; step < 60; step++ {
				s.RunCycles(500)
				wantBr := make([]int, s.nthreads)
				wantDM := make([]int, s.nthreads)
				wantLL := make([]int, s.nthreads)
				for u := range s.liveUOps() {
					if u.Squashed && (u.InBRCount || u.DMiss || u.LongMiss) {
						t.Fatalf("cycle %d: squashed uop still carries signal flags", s.Cycles())
					}
					if u.InBRCount {
						wantBr[u.Thread]++
					}
					if u.DMiss {
						wantDM[u.Thread]++
					}
					if u.LongMiss {
						wantLL[u.Thread]++
					}
				}
				for tid := range s.threads {
					ts := &s.threads[tid]
					if ts.brcount != wantBr[tid] || ts.dmisses != wantDM[tid] || ts.longLoads != wantLL[tid] {
						t.Fatalf("cycle %d thread %d: counters (br=%d dm=%d ll=%d), recount (br=%d dm=%d ll=%d)",
							s.Cycles(), tid, ts.brcount, ts.dmisses, ts.longLoads,
							wantBr[tid], wantDM[tid], wantLL[tid])
					}
				}
			}
		})
	}
}

// TestStallGatesLongLoadThreads checks the STALL gate end-to-end: while a
// thread has an outstanding long-latency load it must never be selected
// for fetch or prediction.
func TestStallGatesLongLoadThreads(t *testing.T) {
	s := newPolicySim(t, config.Stall, 0x57A11)
	gated := 0
	for step := 0; step < 20_000; step++ {
		s.Cycle()
		for tid := range s.threads {
			if s.threads[tid].longLoads > 0 {
				gated++
				if s.fetchEligible(tid) {
					t.Fatalf("cycle %d: thread %d fetch-eligible with %d long loads outstanding",
						s.Cycles(), tid, s.threads[tid].longLoads)
				}
				if s.predictEligible(tid) {
					t.Fatalf("cycle %d: thread %d predict-eligible with a long load outstanding", s.Cycles(), tid)
				}
			}
		}
	}
	if gated == 0 {
		t.Fatal("no thread was ever gated; test is vacuous")
	}
}

// TestFlushPoolAndFreeListInvariants re-runs the whole-pipeline aliasing
// invariants under the FLUSH policy, whose replay queue is a brand-new
// container that can reach uops and pin fetch requests.
func TestFlushPoolAndFreeListInvariants(t *testing.T) {
	s := newPolicySim(t, config.Flush, 0xA11A5)
	var pinned []*ftq.Request
	sawReplay := false
	for step := 0; step < 200; step++ {
		s.RunCycles(100)
		live := s.liveUOps()
		for _, u := range s.freeUOps {
			if where, ok := live[u]; ok {
				t.Fatalf("cycle %d: free list holds uop still referenced by %s", s.Cycles(), where)
			}
		}
		pinned = pinned[:0]
		for u, where := range live {
			if where == "replay" {
				sawReplay = true
				if !u.Flushed || u.Squashed {
					t.Fatalf("cycle %d: replay queue holds a uop with Flushed=%v Squashed=%v",
						s.Cycles(), u.Flushed, u.Squashed)
				}
			}
			if u.Req == nil {
				continue
			}
			if u.Squashed {
				t.Fatalf("cycle %d: squashed uop in %s still holds a request reference", s.Cycles(), where)
			}
			if !u.Req.Live() {
				t.Fatalf("cycle %d: uop in %s points into a pooled request", s.Cycles(), where)
			}
			pinned = append(pinned, u.Req)
		}
		if err := s.fe.CheckPoolInvariants(pinned...); err != nil {
			t.Fatalf("cycle %d: %v", s.Cycles(), err)
		}
	}
	if !sawReplay {
		t.Fatal("replay queue never observed non-empty; invariants untested")
	}
	if s.Stats().Flushes == 0 {
		t.Fatal("no flushes happened; flush path untested")
	}
}
