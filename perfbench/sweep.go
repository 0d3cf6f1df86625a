package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"smtfetch/internal/config"
	"smtfetch/internal/experiment"
)

// sweepWorkload is a local sweep grid, fixed except for its replication
// seed, which the benchmark seed selects.
type sweepWorkload struct {
	workloads []string
	engines   []string
	policies  []string
	warmup    uint64
	measure   uint64
	sample    string
	warmFork  string
	// setupWarmup and setupMeasure are the phase lengths of the set-up
	// pass, a short run of the same grid that lets the heap grow and lazy
	// initialization finish before anything is timed.
	setupWarmup  uint64
	setupMeasure uint64
	// minSweeps is the fewest sweeps an untraced run makes.
	minSweeps int
	// seedStride spaces the replication seeds of a run's sweeps; 0 repeats
	// the benchmark seed's grid.
	seedStride uint64
}

var (
	sweepFull = sweepWorkload{
		workloads:    []string{"2_MIX", "4_MIX", "8_MIX"},
		engines:      []string{"gshare+BTB", "gskew+FTB", "stream"},
		policies:     []string{"ICOUNT.1.8", "FLUSH.2.8"},
		warmup:       50_000,
		measure:      300_000,
		setupWarmup:  2_500,
		setupMeasure: 15_000,
		minSweeps:    3,
		seedStride:   1000,
	}
	sweepSampledFork = sweepWorkload{
		workloads: []string{"2_MIX", "4_MIX", "8_MIX"},
		engines:   []string{"stream", "gskew+FTB"},
		policies: []string{"ICOUNT.2.8", "RR.2.8", "BRCOUNT.2.8", "MISSCOUNT.2.8",
			"IQPOSN.2.8", "STALL.2.8", "FLUSH.2.8"},
		warmup:   200_000,
		measure:  20_000,
		sample:   "detail:1000,skip:49000",
		warmFork: experiment.WarmForkFork,
		// One detail interval per cell: the set-up pass restores and
		// switches policy like the real one but never drains.
		setupWarmup:  10_000,
		setupMeasure: 1_000,
		// Every sweep repeats the benchmark seed's grid: how long a grid
		// takes, how many of its cells fail to drain and how much memory
		// it needs vary too much between seeds to average over them.
		minSweeps: 3,
	}
)

// replicationSeed is the simulator replication seed of a run's i-th sweep:
// the benchmark seed itself first, so the default seed 1 always runs the
// seed-1 grid.
func (w sweepWorkload) replicationSeed(seed uint64, i int) uint64 {
	return seed + w.seedStride*uint64(i)
}

// sweep builds the grid at one replication seed.
func (w sweepWorkload) sweep(seed uint64) (*experiment.Sweep, error) {
	sw := &experiment.Sweep{
		Workloads:     w.workloads,
		Seeds:         []uint64{seed},
		WarmupInstrs:  w.warmup,
		MeasureInstrs: w.measure,
		Sample:        w.sample,
		WarmFork:      w.warmFork,
		Jobs:          runtime.NumCPU(),
	}
	for _, s := range w.engines {
		e, err := config.ParseEngine(s)
		if err != nil {
			return nil, err
		}
		sw.Engines = append(sw.Engines, e)
	}
	for _, s := range w.policies {
		p, err := config.ParseFetchPolicy(s)
		if err != nil {
			return nil, err
		}
		sw.Policies = append(sw.Policies, p)
	}
	return sw, nil
}

// sweepRun is one timed local sweep: Prepare, RunCells and the results
// JSON, as experiment.Sweep.Run and the CLI perform them.
type sweepRun struct {
	results []experiment.Result
	json    []byte
	wall    time.Duration
	// cellLat is each cell's time from a worker taking it to its result.
	cellLat []time.Duration
}

// runSweep times one sweep. The result source only notes when a worker
// takes each cell and always declines, so every cell executes on the
// library's own path.
func runSweep(sw *experiment.Sweep) (sweepRun, error) {
	var (
		mu      sync.Mutex
		started = map[string]time.Time{}
		lat     []time.Duration
	)
	sw.OnResult = func(_, _ int, r experiment.Result) {
		mu.Lock()
		lat = append(lat, time.Since(started[r.Key()]))
		mu.Unlock()
	}
	note := func(c experiment.Cell) (experiment.Result, bool) {
		mu.Lock()
		started[c.Key()] = time.Now()
		mu.Unlock()
		return experiment.Result{}, false
	}
	t0 := time.Now()
	cells, err := sw.Prepare()
	if err != nil {
		return sweepRun{}, err
	}
	// Failed cells come back in their Result.Error; the joined error
	// repeats them.
	results, _ := sw.RunCells(cells, note)
	blob, err := experiment.MarshalJSONResults(results)
	if err != nil {
		return sweepRun{}, err
	}
	return sweepRun{results: results, json: blob, wall: time.Since(t0), cellLat: lat}, nil
}

// setup runs the set-up pass reps times and returns the median time.
func (w sweepWorkload) setup(seed uint64, reps int) (time.Duration, error) {
	short := w
	short.warmup, short.measure = w.setupWarmup, w.setupMeasure
	var ds []time.Duration
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		sw, err := short.sweep(seed)
		if err != nil {
			return 0, err
		}
		rs, err := sw.Run()
		if err != nil {
			return 0, fmt.Errorf("set-up pass: %w", err)
		}
		if _, err := experiment.MarshalJSONResults(rs); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	return time.Duration(median(seconds(ds)) * float64(time.Second)), nil
}

// checkCells applies the per-cell output check — every cell that did not
// fail committed at least its measured instructions — and returns the
// failed cell keys.
func checkCells(rs []experiment.Result, measure uint64, chk *checks) []string {
	var failed []string
	for _, r := range rs {
		if r.Error != "" {
			failed = append(failed, r.Key())
			continue
		}
		if r.Stats == nil || r.Stats.Committed < measure {
			var got uint64
			if r.Stats != nil {
				got = r.Stats.Committed
			}
			chk.failf("cell %s committed %d instructions, want at least %d", r.Key(), got, measure)
		}
	}
	return failed
}

// measuredKcyc is the simulated kilo-cycles of the measured cells.
func measuredKcyc(rs []experiment.Result) float64 {
	var c uint64
	for _, r := range rs {
		if r.Stats != nil {
			c += r.Stats.Cycles
		}
	}
	return float64(c) / 1000
}

// forkMatchesRerun checks that the first warm group whose cells all
// succeeded produces byte-identical results under -warm-fork rerun.
func (w sweepWorkload) forkMatchesRerun(seed uint64, forked []experiment.Result, chk *checks) error {
	type group struct {
		workload, engine string
		results          []experiment.Result
		ok               bool
	}
	var groups []*group
	index := map[string]*group{}
	for _, r := range forked {
		k := r.Workload + "/" + r.Engine
		g := index[k]
		if g == nil {
			g = &group{workload: r.Workload, engine: r.Engine, ok: true}
			index[k] = g
			groups = append(groups, g)
		}
		g.results = append(g.results, r)
		g.ok = g.ok && r.Error == ""
	}
	for _, g := range groups {
		if !g.ok {
			continue
		}
		one := w
		one.workloads, one.engines = []string{g.workload}, []string{g.engine}
		one.warmFork = experiment.WarmForkRerun
		sw, err := one.sweep(seed)
		if err != nil {
			return err
		}
		rerun, _ := sw.Run()
		want, err := experiment.MarshalJSONResults(g.results)
		if err != nil {
			return err
		}
		got, err := experiment.MarshalJSONResults(rerun)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, got) {
			chk.failf("warm group %s/%s: fork output differs from -warm-fork rerun", g.workload, g.engine)
		} else {
			chk.passf("fork == rerun byte for byte on warm group %s/%s/%d (%d cells)", g.workload, g.engine, seed, len(g.results))
		}
		return nil
	}
	chk.failf("no warm group without failed cells to compare fork against rerun")
	return nil
}

// runSweepUntraced is the end-to-end run of a sweep workload: set-up, then
// sweeps at the workload's replication seeds until the time is up (at
// least w.minSweeps), each followed by its output checks. Figures are medians over the
// sweeps, so one seed that runs into a defect does not move them; the
// failures themselves are counted and listed.
func runSweepUntraced(w sweepWorkload, o options) (*outcome, error) {
	out := newOutcome("cells")
	setup, err := w.setup(o.seed, 3)
	if err != nil {
		return nil, err
	}
	var (
		walls, rates, perSec, rss []float64
		lat                       []time.Duration
		maxRSS                    float64
		maxRSSSeed                uint64
		first                     = map[uint64][]byte{}
	)
	start := time.Now()
	for i := 0; i < w.minSweeps || time.Since(start) < o.duration; i++ {
		seed := w.replicationSeed(o.seed, i)
		sw, err := w.sweep(seed)
		if err != nil {
			return nil, err
		}
		mem := startRSS()
		run, err := runSweep(sw)
		peak := mem.stopMB()
		if err != nil {
			return nil, err
		}
		failed := checkCells(run.results, w.measure, &out.chk)
		out.noteFailures(failed)
		out.attempted += len(run.results)
		if prev, ok := first[seed]; !ok {
			first[seed] = run.json
			out.digest(fmt.Sprintf("seed %d", seed), run.json)
		} else if !bytes.Equal(prev, run.json) {
			out.chk.failf("two sweeps at seed %d gave different results", seed)
		}
		if i == 0 && w.warmFork == experiment.WarmForkFork {
			if err := w.forkMatchesRerun(seed, run.results, &out.chk); err != nil {
				return nil, err
			}
		}
		fmt.Printf("sweep seed %d: %.3f s, %d cells, %d failed, peak RSS %.1f MB\n", seed, run.wall.Seconds(), len(run.results), len(failed), peak)
		walls = append(walls, run.wall.Seconds())
		rates = append(rates, measuredKcyc(run.results)/run.wall.Seconds())
		perSec = append(perSec, float64(len(run.results))/run.wall.Seconds())
		rss = append(rss, peak)
		if peak > maxRSS {
			maxRSS, maxRSSSeed = peak, seed
		}
		lat = append(lat, run.cellLat...)
	}
	ms := out.metrics
	n := len(walls)
	ms.add("setup_s", setup.Seconds(), "median of 3 set-up passes (Prepare + short run of the same grid)")
	ms.add("sweep_s", median(walls), fmt.Sprintf("median over %d sweeps, Prepare to results JSON", n))
	ms.add("sim_kcyc_per_s", median(rates), fmt.Sprintf("measured-phase simulated kcycles per host second of sweep wall time, median over %d sweeps", n))
	latencyMetrics(ms, lat, "cells (a request is one cell: worker pickup to result)")
	ms.add("req_per_s", median(perSec), fmt.Sprintf("cells completed per second of sweep wall time, median over %d sweeps", n))
	// Some seeds send one cell's memory into gigabytes (see README.md), so
	// the lower quartile of the per-sweep peaks is reported: a minority of
	// such sweeps leaves it on the common footprint, and the note names the
	// highest.
	ms.add("peak_rss_mb", quantile(rss, 0.25), fmt.Sprintf("peak resident set during a sweep, lower quartile over %d sweeps; highest %.1f MB at seed %d", n, maxRSS, maxRSSSeed))
	return out, nil
}

// runSweepTraced is the per-layer run of a sweep workload: one untraced
// sweep, then the same grid through the traced executor under the CPU
// profiler, which must reproduce the untraced results byte for byte.
func runSweepTraced(w sweepWorkload, o options) (*outcome, error) {
	out := newOutcome("cells")
	if _, err := w.setup(o.seed, 1); err != nil {
		return nil, err
	}
	sw, err := w.sweep(o.seed)
	if err != nil {
		return nil, err
	}
	plain, err := runSweep(sw)
	if err != nil {
		return nil, err
	}
	out.noteFailures(checkCells(plain.results, w.measure, &out.chk))
	out.attempted += len(plain.results)
	out.digest(fmt.Sprintf("seed %d", o.seed), plain.json)

	sw, err = w.sweep(o.seed)
	if err != nil {
		return nil, err
	}
	x := newTracedExec()
	prof, err := startProfile(o.outPath("cpu.pprof"))
	if err != nil {
		return nil, err
	}
	traced, err := x.run(sw)
	stopErr := prof.stop()
	if err != nil {
		return nil, err
	}
	if stopErr != nil {
		return nil, stopErr
	}
	// The traced sweep re-executes the same cells, so only the untraced
	// one counts in attempted and failed.
	checkCells(traced.results, w.measure, &out.chk)
	if bytes.Equal(traced.json, plain.json) {
		out.chk.passf("traced results JSON is byte-identical to the untraced run")
	} else {
		out.chk.failf("traced results JSON differs from the untraced run")
	}
	if w.warmFork == experiment.WarmForkFork {
		if err := w.forkMatchesRerun(o.seed, plain.results, &out.chk); err != nil {
			return nil, err
		}
		want := warmGroups(plain.results)
		if got := int(x.groupsBuilt.Load()); got != want {
			out.chk.failf("experiment.warm_groups_built = %d, want %d", got, want)
		}
	}
	stages, err := prof.stageNsPerCycle(x.simCycles.Load())
	if err != nil {
		return nil, err
	}
	ms := out.metrics
	x.layerMetrics(ms)
	simMetrics(ms, plain.results)
	stageMetrics(ms, stages)
	ms.add("trace.overhead_frac", traced.wall.Seconds()/plain.wall.Seconds()-1,
		fmt.Sprintf("traced sweep_s %.3f s against untraced %.3f s (the traced sweep also runs the CPU profiler)", traced.wall.Seconds(), plain.wall.Seconds()))
	out.tr = x.tr
	return out, nil
}

// warmGroups counts the distinct warm groups of a grid's results.
func warmGroups(rs []experiment.Result) int {
	seen := map[string]bool{}
	for _, r := range rs {
		c := r.Cell()
		seen[fmt.Sprintf("%s/%s/%d.%d/%d", c.Workload, c.Engine, c.Policy.Threads, c.Policy.Width, c.Seed)] = true
	}
	return len(seen)
}

// simMetrics reports the simulated counters of a results set. They repeat
// exactly for a given seed; a change meant only to speed the simulator
// up must leave them identical.
func simMetrics(ms *metricSet, rs []experiment.Result) {
	var cycles, committed, fetched, fetchCycles, condBr, condMiss uint64
	var blockLen, icMiss float64
	n := 0
	for _, r := range rs {
		st := r.Stats
		if st == nil {
			continue
		}
		n++
		cycles += st.Cycles
		committed += st.Committed
		fetched += st.Fetched
		fetchCycles += st.FetchCycles
		condBr += st.CondBranches
		condMiss += st.CondMispredicts
		blockLen += st.AvgFetchBlockLen
		icMiss += st.ICacheMissRate
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	note := fmt.Sprintf("simulated, over the measured phases of %d cells", n)
	ms.add("sim.cycles", float64(cycles), note)
	ms.add("sim.committed", float64(committed), note)
	ms.add("sim.avg_fetch_block_len", ratio(blockLen, float64(n)), "simulated, mean over cells")
	ms.add("sim.ipfc", ratio(float64(fetched), float64(fetchCycles)), note)
	ms.add("sim.icache_miss_rate", ratio(icMiss, float64(n)), "simulated, mean over cells")
	ms.add("sim.cond_accuracy", 1-ratio(float64(condMiss), float64(condBr)), note)
}
