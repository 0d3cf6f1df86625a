package smtfetch

import (
	"testing"

	"smtfetch/internal/rng"
)

// progressWindow is the forward-progress bound K: every thread of these
// synthetic workloads always has work, so each must commit at least once
// in any window of K cycles. The worst gap seen over the property grid is
// about 3k cycles; a leaking front end starves a thread for millions.
const progressWindow = 10_000

// checkFlow runs sim for the given number of cycles, checking every
// checkEvery cycles that instructions are conserved within the in-flight
// bound (core.Sim.CheckFlow) and that no thread goes progressWindow cycles
// without a commit. At the end it checks that the uop arena and each
// thread's fetch-request pool stayed within what the bound lets them hold.
func checkFlow(t *testing.T, name string, sim *Simulator, cycles uint64) {
	t.Helper()
	const checkEvery = 500
	c := sim.Core()
	n := len(c.Stats().PerThread)
	lastCommit := make([]uint64, n)
	committed := make([]uint64, n)
	for c.Cycles() < cycles {
		c.RunCycles(checkEvery)
		if err := c.CheckFlow(); err != nil {
			t.Fatalf("%s, cycle %d: %v", name, c.Cycles(), err)
		}
		for th := range committed {
			if got := c.Stats().PerThread[th].Committed; got != committed[th] {
				committed[th], lastCommit[th] = got, c.Cycles()
			} else if gap := c.Cycles() - lastCommit[th]; gap > progressWindow {
				t.Fatalf("%s, cycle %d: thread %d has not committed for %d cycles", name, c.Cycles(), th, gap)
			}
		}
	}
	// Live uops are at most the in-flight uops plus as many again squashed
	// in the two-cycle limbo; the arena grows a slab (256) at a time. A
	// thread's requests are its FTQ plus at most one pinned per in-flight
	// uop.
	bound := c.InFlightBound()
	cfg := c.Config()
	uops, reqs := c.PoolSizes()
	if limit := 2*n*bound + 256; uops > limit {
		t.Errorf("%s: uop arena grew to %d, bound %d", name, uops, limit)
	}
	for th, r := range reqs {
		if limit := cfg.FTQSize + bound; r > limit {
			t.Errorf("%s: thread %d request pool grew to %d, bound %d", name, th, r, limit)
		}
	}
}

// TestFlowConservationProperty runs short simulations over raw simulator
// seeds × every engine × every fetch policy and requires instruction
// conservation, forward progress and bounded pools throughout.
func TestFlowConservationProperty(t *testing.T) {
	workloads := []string{"2_MIX", "4_MIX", "8_MIX"}
	st := uint64(0xF10C0DE)
	for i, w := range workloads {
		seed := rng.SplitMix64(&st)
		for _, eng := range Engines() {
			for _, p := range Policies() {
				fp := FetchPolicy{Policy: p, Threads: 1 + i%2, Width: 8}
				sim, err := New(Options{Workload: w, Engine: eng, Policy: fp, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				checkFlow(t, w+"/"+eng.String()+"/"+fp.String(), sim, 20_000)
			}
		}
	}
}

// TestFlowPinnedReproducers pins the two cells that leaked before decode
// applied backpressure, by the raw Options.Seed each ran with, so a change
// to how sweeps derive seeds cannot silently retire them. Each must now
// stall fetch on a full fetch buffer instead of growing the front end.
func TestFlowPinnedReproducers(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		// Replication seed 3005: one thread fetched 1.25M uops and
		// committed 200k; the other committed 45.
		{"2_MIX/stream/ICOUNT.2.8", Options{Workload: "2_MIX", Engine: StreamFetch, Policy: ICount28, Seed: 6344358660470150465}},
		// Replication seed 2013: the full-detail sweep cell that passed
		// 1 GB.
		{"2_MIX/gshare+BTB/ICOUNT.1.8", Options{Workload: "2_MIX", Engine: GShareBTB, Policy: ICount18, Seed: 373243522011378410}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := New(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			checkFlow(t, tc.name, sim, 100_000)
			if sim.Core().Stats().FetchBufStalls == 0 {
				t.Errorf("%s: fetch never stalled on a full fetch buffer", tc.name)
			}
		})
	}
}
