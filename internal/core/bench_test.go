package core

import (
	"testing"

	"smtfetch/internal/config"
)

// newBenchSim builds a warmed-up 4-thread MIX simulator: the workload the
// paper's Figure 7 analysis centres on, and a realistic mix of I-cache
// pressure, D-cache misses, and mispredictions for the hot loop.
func newBenchSim(tb testing.TB, engine config.Engine) *Sim {
	return newBenchSimPolicy(tb, engine, config.Default().FetchPolicy)
}

func newBenchSimPolicy(tb testing.TB, engine config.Engine, fp config.FetchPolicy) *Sim {
	s := newWorkloadSim(tb, "4_MIX", engine, fp, 0xB5EED)
	// Warm caches, predictors, and internal buffers so the measured loop
	// reflects steady state, not cold-start allocation.
	s.Run(50_000, 1_000_000)
	return s
}

// BenchmarkCycle measures the simulator's hot loop: one call per simulated
// cycle. allocs/op is the headline number — the cycle loop is required to be
// allocation-free in steady state.
func BenchmarkCycle(b *testing.B) {
	s := newBenchSim(b, config.GShareBTB)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cycle()
	}
}

// BenchmarkCycleStream is the same loop under the stream fetch engine,
// whose longer fetch blocks stress the fetch buffer and dependence ring
// differently.
func BenchmarkCycleStream(b *testing.B) {
	s := newBenchSim(b, config.StreamFetch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cycle()
	}
}

// BenchmarkCycleFTB is the same loop under the gskew+FTB engine, whose
// spanned fetch blocks exercise the embedded-divergence and FTB training
// paths the other two engines never reach.
func BenchmarkCycleFTB(b *testing.B) {
	s := newBenchSim(b, config.GSkewFTB)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cycle()
	}
}

// BenchmarkCycleFlush is the same loop under the FLUSH fetch policy, whose
// flush/replay machinery is the most stateful policy path; it must stay
// allocation-free like the rest of the cycle loop.
func BenchmarkCycleFlush(b *testing.B) {
	s := newBenchSimPolicy(b, config.GShareBTB,
		config.FetchPolicy{Policy: config.Flush, Threads: 2, Width: 8})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cycle()
	}
}
