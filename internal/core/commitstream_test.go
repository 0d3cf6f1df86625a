package core

import (
	"fmt"
	"testing"

	"smtfetch/internal/config"
	"smtfetch/internal/isa"
	"smtfetch/internal/pipeline"
)

// committed is what the committed instruction stream fixes per
// instruction: where it is, where it went, and what it touched.
type committed struct {
	PC      isa.Addr
	Taken   bool
	EffAddr isa.Addr
}

// recordCommits cycles s until it has committed at least total
// instructions since construction, appending each thread's committed
// instructions to streams[t] in commit order. Commit is the first stage
// of a cycle and retires a prefix of each thread's ROB, so the uops a
// cycle commits are the first (per-thread committed count delta) entries
// of that thread's ROB as it stood before the cycle.
func recordCommits(t *testing.T, s *Sim, streams [][]committed, total uint64) {
	t.Helper()
	heads := make([][]committed, len(streams))
	before := make([]uint64, len(streams))
	for s.Stats().Committed < total {
		if s.Cycles() > 100*total {
			t.Fatalf("%d instructions not committed within %d cycles", total, s.Cycles())
		}
		for th := range heads {
			heads[th] = heads[th][:0]
			before[th] = s.Stats().PerThread[th].Committed
		}
		s.rob.Each(func(u *pipeline.UOp) {
			if len(heads[u.Thread]) < s.cfg.CommitWidth {
				heads[u.Thread] = append(heads[u.Thread], committed{u.PC, u.Taken, u.EffAddr})
			}
		})
		s.Cycle()
		for th := range heads {
			streams[th] = append(streams[th], heads[th][:s.Stats().PerThread[th].Committed-before[th]]...)
		}
	}
}

// TestCommittedStreamIndependentOfFetchConfig is the common-random-numbers
// contract behind every engine and policy comparison: given the same
// programs and seed, each thread commits the same instruction stream
// (PC, direction, effective address) whatever the fetch engine, the fetch
// policy and its T.W shape, or whether the warm-up ran under the canonical
// ICOUNT policy, continued in place (warm-fork rerun) or through a
// snapshot restored into a fresh simulator (warm-fork fork). Timing
// decides only how far each thread gets, so the streams are compared over
// the prefix both runs committed. Streams of different seeds must differ.
func TestCommittedStreamIndependentOfFetchConfig(t *testing.T) {
	// Committed instructions per run (all threads), and before a warm-fork
	// run switches policy. The test is single-goroutine, so under the race
	// detector (or -short) a fifth of the length keeps it cheap; the plain
	// suite runs it in full.
	total, warm := uint64(100_000), uint64(30_000)
	if raceEnabled || testing.Short() {
		total, warm = total/5, warm/5
	}
	type run struct {
		engine config.Engine
		policy config.FetchPolicy
		fork   string // "", "rerun" or "fork"
	}
	fp := func(p config.Policy, threads int) config.FetchPolicy {
		return config.FetchPolicy{Policy: p, Threads: threads, Width: 8}
	}
	runs := []run{{engine: config.GShareBTB, policy: fp(config.ICount, 1)}}
	for _, e := range config.Engines() {
		runs = append(runs, run{engine: e, policy: fp(config.ICount, 2)}, run{engine: e, policy: fp(config.Flush, 2)})
	}
	runs = append(runs,
		run{engine: config.StreamFetch, policy: fp(config.Stall, 2), fork: "rerun"},
		run{engine: config.GSkewFTB, policy: fp(config.RoundRobin, 1), fork: "fork"},
	)

	for _, workload := range []string{"2_MIX", "4_MIX", "8_MIX"} {
		var bySeed [][][]committed
		for _, seed := range []uint64{1, 2} {
			var ref [][]committed
			for _, r := range runs {
				name := fmt.Sprintf("%s seed %d %s %s %s", workload, seed, r.engine, r.policy, r.fork)
				warmPolicy := r.policy
				if r.fork != "" {
					warmPolicy.Policy = config.ICount
				}
				s := newWorkloadSim(t, workload, r.engine, warmPolicy, seed)
				streams := make([][]committed, s.nthreads)
				if r.fork != "" {
					recordCommits(t, s, streams, warm)
					if r.fork == "fork" {
						blob, err := s.Snapshot()
						if err != nil {
							t.Fatalf("%s: snapshot: %v", name, err)
						}
						s = newWorkloadSim(t, workload, r.engine, warmPolicy, seed)
						if err := s.Restore(blob); err != nil {
							t.Fatalf("%s: restore: %v", name, err)
						}
					}
					if err := s.SetPolicy(r.policy); err != nil {
						t.Fatalf("%s: SetPolicy: %v", name, err)
					}
				}
				recordCommits(t, s, streams, total)
				if ref == nil {
					ref = streams
					continue
				}
				for th := range streams {
					n := min(len(ref[th]), len(streams[th]))
					if n < int(total/200) {
						t.Fatalf("%s: thread %d shares only %d committed instructions with the reference", name, th, n)
					}
					for i := 0; i < n; i++ {
						if streams[th][i] != ref[th][i] {
							t.Fatalf("%s: thread %d instruction %d is %+v, reference %+v", name, th, i, streams[th][i], ref[th][i])
						}
					}
				}
			}
			bySeed = append(bySeed, ref)
		}
		if fmt.Sprint(bySeed[0][0][:100]) == fmt.Sprint(bySeed[1][0][:100]) {
			t.Errorf("%s: seeds 1 and 2 commit the same thread-0 stream", workload)
		}
	}
}
