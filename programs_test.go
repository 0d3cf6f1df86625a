package smtfetch

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"smtfetch/internal/bench"
	"smtfetch/internal/config"
	"smtfetch/internal/core"
	"smtfetch/internal/prog"
	"smtfetch/internal/rng"
)

// privateSimulator builds opts' simulator the way New did before programs
// were shared: every program built afresh for this simulator alone. It
// repeats New's seed derivation, so a shared simulator that drew its
// programs or its core seed differently would not match it.
func privateSimulator(t *testing.T, opts Options) *Simulator {
	t.Helper()
	if err := opts.fill(); err != nil {
		t.Fatal(err)
	}
	mc := config.Default()
	mc.Engine = opts.Engine
	mc.FetchPolicy = opts.Policy
	st := opts.Seed
	programs := make([]*prog.Program, len(opts.Benchmarks))
	for i, name := range opts.Benchmarks {
		programs[i] = prog.Build(bench.MustProfile(name), rng.SplitMix64(&st))
	}
	sim, err := core.New(mc, programs, rng.SplitMix64(&st))
	if err != nil {
		t.Fatal(err)
	}
	return &Simulator{sim: sim, opts: opts, programs: programs}
}

func mustNew(t *testing.T, opts Options) *Simulator {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSharesProgramsOfLiveSimulators(t *testing.T) {
	opts := Options{Workload: "4_MIX", Seed: 41}
	a := mustNew(t, opts)
	b := mustNew(t, opts)
	other := opts
	other.Engine, other.Policy = StreamFetch, RR28
	c := mustNew(t, other)
	for i := range a.programs {
		if b.programs[i] != a.programs[i] || c.programs[i] != a.programs[i] {
			t.Errorf("thread %d: simulators of one (workload, seed) hold different programs", i)
		}
	}

	reseeded := opts
	reseeded.Seed++
	d := mustNew(t, reseeded)
	e := mustNew(t, Options{Benchmarks: []string{"mcf", "gzip", "gcc", "twolf"}, Seed: opts.Seed})
	for _, s := range []*Simulator{d, e} {
		for i := range s.programs {
			for j := range a.programs {
				if s.programs[i] == a.programs[j] {
					t.Errorf("%v thread %d shares thread %d's program of %v", s.opts.Benchmarks, i, j, a.opts.Benchmarks)
				}
			}
		}
	}
	runtime.KeepAlive(a)
}

func TestSharedProgramsReleasedWithSimulators(t *testing.T) {
	opts := Options{Benchmarks: []string{"gzip"}, Seed: 0x5eed_0f_d1e}
	st := opts.Seed
	key := programKey(bench.MustProfile("gzip"), rng.SplitMix64(&st))
	func() {
		s := mustNew(t, opts)
		if sharedPrograms.lookup(key) != s.programs[0] {
			t.Fatal("the table does not hold the live simulator's program")
		}
	}()
	// Cleanups run on their own goroutine after a collection, so poll.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		sharedPrograms.mu.Lock()
		_, held := sharedPrograms.live[key]
		sharedPrograms.mu.Unlock()
		if !held {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("program entry still in the table 10 s after its simulator was dropped")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSharedProgramsConcurrentRunsMatchPrivate builds and runs simulators
// of every engine and several policies at once over one shared program
// set; each must produce exactly the result of the same simulator over
// programs built for it alone.
func TestSharedProgramsConcurrentRunsMatchPrivate(t *testing.T) {
	base := Options{Workload: "2_MIX", Seed: 43, WarmupInstrs: 5_000, MeasureInstrs: 20_000}
	var cells []Options
	for _, e := range Engines() {
		for _, p := range []FetchPolicy{ICount18, RR28, config.FetchPolicy{Policy: Flush, Threads: 2, Width: 8}} {
			o := base
			o.Engine, o.Policy = e, p
			cells = append(cells, o)
		}
	}
	cells = cells[:8]

	sims := make([]*Simulator, len(cells))
	got := make([]*Result, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, o := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sims[i], errs[i] = New(o); errs[i] == nil {
				got[i], errs[i] = sims[i].Run()
			}
		}()
	}
	wg.Wait()
	for i, o := range cells {
		if errs[i] != nil {
			t.Fatalf("%v %v: %v", o.Engine, o.Policy, errs[i])
		}
		for j, p := range sims[i].programs {
			if p != sims[0].programs[j] {
				t.Fatalf("%v %v thread %d does not share cell 0's program", o.Engine, o.Policy, j)
			}
		}
		want, err := privateSimulator(t, o).Run()
		if err != nil {
			t.Fatal(err)
		}
		if got[i].IPC != want.IPC || !reflect.DeepEqual(got[i].Stats.Snapshot(), want.Stats.Snapshot()) {
			t.Errorf("%v %v: shared-program run differs from a private one: IPC %v vs %v", o.Engine, o.Policy, got[i].IPC, want.IPC)
		}
	}
}

// TestSharedProgramUnchangedByRun pins that simulation never writes a
// Program: after full-detail and sampled runs over them, the shared
// programs still equal fresh builds.
func TestSharedProgramUnchangedByRun(t *testing.T) {
	full := Options{Workload: "2_MIX", Seed: 47, Engine: StreamFetch, WarmupInstrs: 20_000, MeasureInstrs: 50_000}
	sampled := full
	sampled.Engine = GSkewFTB
	sampled.Sample = SampleSpec{DetailInstrs: 5_000, SkipInstrs: 20_000}
	var sims []*Simulator
	for _, o := range []Options{full, sampled} {
		s := mustNew(t, o)
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		sims = append(sims, s)
	}
	fresh := privateSimulator(t, full)
	for i, p := range sims[0].programs {
		if sims[1].programs[i] != p {
			t.Fatalf("thread %d: the two runs did not share a program", i)
		}
		if !reflect.DeepEqual(p, fresh.programs[i]) {
			t.Errorf("thread %d (%s): the shared program changed during the runs", i, p.Profile().Name)
		}
	}
}
