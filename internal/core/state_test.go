package core

import (
	"bytes"
	"reflect"
	"testing"

	"smtfetch/internal/bench"
	"smtfetch/internal/config"
	"smtfetch/internal/ftq"
	"smtfetch/internal/prog"
	"smtfetch/internal/rng"
)

// newSnapSim is newTestSim with an explicit fetch policy. Building two
// simulators from the same seed yields identical programs, which is what
// the round-trip tests rely on.
func newSnapSim(t testing.TB, engine config.Engine, fp config.FetchPolicy, seed uint64) *Sim {
	return newWorkloadSim(t, "2_MIX", engine, fp, seed)
}

// checkPools verifies the request-pool invariants on s, pinning every
// request reachable from a live uop (the pool_test.go pattern).
func checkPools(t *testing.T, s *Sim, when string) {
	t.Helper()
	var pinned []*ftq.Request
	for u := range s.liveUOps() {
		if u.Req != nil && !u.Squashed {
			pinned = append(pinned, u.Req)
		}
	}
	if err := s.fe.CheckPoolInvariants(pinned...); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestSnapshotRestoreByteIdentical is the determinism contract behind
// warm-state checkpoints: restoring a snapshot onto a fresh simulator and
// running k more cycles must be byte-identical (snapshot bytes and
// statistics) to the original simulator running those same k cycles.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	engines := []config.Engine{config.GShareBTB, config.GSkewFTB, config.StreamFetch}
	for _, eng := range engines {
		for _, pol := range config.Policies() {
			fp := config.FetchPolicy{Policy: pol, Threads: 2, Width: 8}
			a := newSnapSim(t, eng, fp, 0xC0FFEE)
			a.RunCycles(30_000)

			blob, err := a.Snapshot()
			if err != nil {
				t.Fatalf("%v/%v: snapshot: %v", eng, pol, err)
			}

			b := newSnapSim(t, eng, fp, 0xC0FFEE)
			if err := b.Restore(blob); err != nil {
				t.Fatalf("%v/%v: restore: %v", eng, pol, err)
			}
			checkPools(t, b, "after restore")

			// The restored simulator must serialize back to the same bytes.
			blob2, err := b.Snapshot()
			if err != nil {
				t.Fatalf("%v/%v: re-snapshot: %v", eng, pol, err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatalf("%v/%v: snapshot not idempotent across restore (%d vs %d bytes)", eng, pol, len(blob), len(blob2))
			}

			a.RunCycles(20_000)
			b.RunCycles(20_000)
			if !reflect.DeepEqual(a.Stats(), b.Stats()) {
				t.Fatalf("%v/%v: continued stats diverge:\noriginal: %+v\nrestored: %+v", eng, pol, a.Stats(), b.Stats())
			}
			sa, err := a.Snapshot()
			if err != nil {
				t.Fatalf("%v/%v: final snapshot (original): %v", eng, pol, err)
			}
			sb, err := b.Snapshot()
			if err != nil {
				t.Fatalf("%v/%v: final snapshot (restored): %v", eng, pol, err)
			}
			if !bytes.Equal(sa, sb) {
				t.Fatalf("%v/%v: continued execution diverges (snapshot bytes differ)", eng, pol)
			}
			checkPools(t, b, "after continued run")
		}
	}
}

// TestSnapshotRoundTripFuzz is the model-based fuzz over the checkpoint
// machinery: random warm-up lengths and continuation lengths across all
// seven policies (FLUSH included, so replay queues are regularly in flight
// at snapshot time), asserting byte-identical continued execution and
// clean pool invariants after every restore.
func TestSnapshotRoundTripFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulator runs; skipped with -short")
	}
	r := rng.New(0xF022)
	sawReplay := false
	for round := 0; round < 12; round++ {
		pol := config.Policies()[int(r.Uint64()%7)]
		fp := config.FetchPolicy{Policy: pol, Threads: 2, Width: 8}
		eng := []config.Engine{config.GShareBTB, config.GSkewFTB, config.StreamFetch}[int(r.Uint64()%3)]
		seed := r.Uint64()
		warm := 5_000 + r.Uint64()%40_000
		cont := 1_000 + r.Uint64()%15_000

		a := newSnapSim(t, eng, fp, seed)
		a.RunCycles(warm)
		for i := range a.threads {
			ts := &a.threads[i]
			if ts.replayPos < len(ts.replay) {
				sawReplay = true
			}
		}
		blob, err := a.Snapshot()
		if err != nil {
			t.Fatalf("round %d (%v/%v, warm %d): snapshot: %v", round, eng, pol, warm, err)
		}
		b := newSnapSim(t, eng, fp, seed)
		if err := b.Restore(blob); err != nil {
			t.Fatalf("round %d (%v/%v): restore: %v", round, eng, pol, err)
		}
		checkPools(t, b, "after restore")
		a.RunCycles(cont)
		b.RunCycles(cont)
		sa, erra := a.Snapshot()
		sb, errb := b.Snapshot()
		if erra != nil || errb != nil {
			t.Fatalf("round %d: final snapshots: %v / %v", round, erra, errb)
		}
		if !bytes.Equal(sa, sb) {
			t.Fatalf("round %d (%v/%v, warm %d, cont %d): continued execution diverges", round, eng, pol, warm, cont)
		}
		checkPools(t, b, "after continued run")
	}
	if !sawReplay {
		t.Log("fuzz never caught a FLUSH replay queue in flight at snapshot time; coverage is reduced")
	}
}

// TestSnapshotRejectsMismatch covers the envelope validation: wrong
// configuration, wrong thread count, truncation, and trailing garbage all
// fail with errors instead of corrupting the receiver.
func TestSnapshotRejectsMismatch(t *testing.T) {
	fp := config.Default().FetchPolicy
	a := newSnapSim(t, config.GShareBTB, fp, 0xD00D)
	a.RunCycles(5_000)
	blob, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Different engine => different cfgHash.
	b := newSnapSim(t, config.StreamFetch, fp, 0xD00D)
	if err := b.Restore(blob); err == nil {
		t.Fatal("restore onto a different configuration succeeded")
	}

	// Truncated stream.
	c := newSnapSim(t, config.GShareBTB, fp, 0xD00D)
	if err := c.Restore(blob[:len(blob)/2]); err == nil {
		t.Fatal("restore of a truncated snapshot succeeded")
	}

	// Trailing garbage.
	d := newSnapSim(t, config.GShareBTB, fp, 0xD00D)
	if err := d.Restore(append(append([]byte{}, blob...), 0xAB)); err == nil {
		t.Fatal("restore with trailing bytes succeeded")
	}

	// Bad magic.
	e := newSnapSim(t, config.GShareBTB, fp, 0xD00D)
	bad := append([]byte{}, blob...)
	bad[0] ^= 0xFF
	if err := e.Restore(bad); err == nil {
		t.Fatal("restore with corrupt magic succeeded")
	}

	// A good blob still restores after all those rejections built fresh sims.
	f := newSnapSim(t, config.GShareBTB, fp, 0xD00D)
	if err := f.Restore(blob); err != nil {
		t.Fatalf("restore of a valid snapshot failed: %v", err)
	}
}

// TestSetPolicyForksDeterministically is the warm-fork contract: two
// simulators restored from one canonical-policy snapshot and switched to
// the same target policy must execute identically, and switching must
// activate the policy's machinery (FLUSH flushes, IQPOSN recomputation).
func TestSetPolicyForksDeterministically(t *testing.T) {
	canon := config.Default().FetchPolicy // ICOUNT canonical
	a := newSnapSim(t, config.GShareBTB, canon, 0xF0F0)
	a.RunCycles(30_000)
	blob, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	for _, pol := range config.Policies() {
		fp := config.FetchPolicy{Policy: pol, Threads: canon.Threads, Width: canon.Width}
		var snaps [][]byte
		var flushes uint64
		for rep := 0; rep < 2; rep++ {
			s := newSnapSim(t, config.GShareBTB, canon, 0xF0F0)
			if err := s.Restore(blob); err != nil {
				t.Fatalf("%v: restore: %v", pol, err)
			}
			if err := s.SetPolicy(fp); err != nil {
				t.Fatalf("%v: SetPolicy: %v", pol, err)
			}
			s.ResetStats()
			s.RunCycles(20_000)
			checkPools(t, s, "after forked run")
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatalf("%v: snapshot after fork: %v", pol, err)
			}
			snaps = append(snaps, snap)
			flushes = s.Stats().Flushes
		}
		if !bytes.Equal(snaps[0], snaps[1]) {
			t.Fatalf("%v: two forks from the same snapshot diverged", pol)
		}
		if pol == config.Flush && flushes == 0 {
			t.Logf("FLUSH fork saw no flush events in 20k cycles (machinery untested this run)")
		}
	}

	// Bandwidth changes must be rejected.
	s := newSnapSim(t, config.GShareBTB, canon, 0xF0F0)
	if err := s.SetPolicy(config.FetchPolicy{Policy: config.ICount, Threads: canon.Threads + 1, Width: canon.Width}); err == nil {
		t.Fatal("SetPolicy accepted a fetch-bandwidth change")
	}
}

// TestDrainFastForwardDeterministic covers the sampled-simulation
// machinery: drain empties the pipeline completely, functional
// fast-forward advances the committed trace without cycles or statistics,
// and the detail/skip alternation is deterministic across runs. The first
// two runs pass all-zero shares and the third equal nonzero ones, which
// must visit the threads in the same round-robin order.
func TestDrainFastForwardDeterministic(t *testing.T) {
	for _, eng := range []config.Engine{config.GShareBTB, config.StreamFetch} {
		var snaps [][]byte
		for _, share := range []uint64{0, 0, 3} {
			s := newSnapSim(t, eng, config.Default().FetchPolicy, 0xABCD)
			shares := make([]uint64, s.nthreads)
			for i := range shares {
				shares[i] = share
			}
			for phase := 0; phase < 3; phase++ {
				s.RunCycles(5_000)
				if err := s.Drain(1_000_000); err != nil {
					t.Fatalf("%v: drain: %v", eng, err)
				}
				if !s.Drained() {
					t.Fatalf("%v: Drain returned with work in flight", eng)
				}
				if len(s.liveUOps()) != 0 {
					t.Fatalf("%v: drained pipeline still references uops", eng)
				}
				cyclesBefore, committedBefore := s.Cycles(), s.Stats().Committed
				if err := s.FastForwardShares(40_000, shares); err != nil {
					t.Fatalf("%v: fast-forward: %v", eng, err)
				}
				if s.Cycles() != cyclesBefore || s.Stats().Committed != committedBefore {
					t.Fatalf("%v: functional fast-forward advanced the clock or committed instructions", eng)
				}
				checkPools(t, s, "after fast-forward")
			}
			s.RunCycles(5_000)
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snap)
		}
		if !bytes.Equal(snaps[0], snaps[1]) {
			t.Fatalf("%v: drain/fast-forward sequence is not deterministic", eng)
		}
		if !bytes.Equal(snaps[0], snaps[2]) {
			t.Fatalf("%v: all-zero shares differ from equal shares", eng)
		}
	}
}

// BenchmarkWarmForkedCell measures the per-cell cost of the warm-fork
// path: restore a 50k-cycle warmed snapshot, switch policy, and run a
// short measurement — the work RunCells does per cell instead of
// re-warming. Tracked in the benchmark baselines next to BenchmarkCycle*.
func BenchmarkWarmForkedCell(b *testing.B) {
	build := func() *Sim {
		cfg := config.Default()
		cfg.Engine = config.GShareBTB
		// Warm under canonical ICOUNT at the target 2.8 shape — SetPolicy
		// can swap the heuristic but never the bandwidth shape.
		cfg.FetchPolicy = config.ICount28
		w, err := bench.WorkloadByName("4_MIX")
		if err != nil {
			b.Fatal(err)
		}
		st := uint64(0xB5EED)
		programs := make([]*prog.Program, len(w.Benchmarks))
		for i, name := range w.Benchmarks {
			programs[i] = prog.Build(bench.MustProfile(name), rng.SplitMix64(&st))
		}
		s, err := New(cfg, programs, rng.SplitMix64(&st))
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	warm := build()
	warm.Run(50_000, 1_000_000)
	blob, err := warm.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	fp := config.FetchPolicy{Policy: config.RoundRobin, Threads: 2, Width: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := build()
		if err := s.Restore(blob); err != nil {
			b.Fatal(err)
		}
		if err := s.SetPolicy(fp); err != nil {
			b.Fatal(err)
		}
		s.ResetStats()
		s.Run(5_000, 100_000)
	}
}
