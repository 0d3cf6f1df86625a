package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"smtfetch"
	"smtfetch/internal/bench"
	"smtfetch/internal/config"
	"smtfetch/internal/core"
	"smtfetch/internal/experiment"
	"smtfetch/internal/prog"
	"smtfetch/internal/rng"
)

// defaultMaxCycles is smtfetch's per-phase cycle bound when a sweep
// leaves MaxCycles zero.
const defaultMaxCycles = 50_000_000

// tracedExec runs sweeps' cells through experiment.Sweep.RunCells with
// itself as the result source, executing each cell with the same public
// calls smtfetch.New, Warm and Measure make — prog.Build, core.New and
// the core.Sim phase methods — each wrapped in a span. Its results must
// be byte-identical to the library's own execution; callers check. One
// tracedExec may run several sweeps, concurrently too; its spans and
// counters cover them all.
type tracedExec struct {
	tr       *tracer
	poolWait atomic.Int64 // ns cells waited for a worker

	groupsBuilt atomic.Int64
	simCycles   atomic.Uint64 // every cycle simulated: warm, measure, drain
	warmCycles  atomic.Uint64
	measCycles  atomic.Uint64 // measure-phase cycles outside drains
	drainCycles atomic.Uint64
	ffInstrs    atomic.Uint64
	snapBytes   atomic.Uint64
}

// tracedSweep is one sweep's state inside a tracedExec.
type tracedSweep struct {
	*tracedExec
	sw     *experiment.Sweep
	sample smtfetch.SampleSpec
	maxCyc uint64
	runID  int
	runT0  time.Duration
	memoMu sync.Mutex
	memo   map[string]*warmEntry
}

type warmEntry struct {
	once sync.Once
	blob []byte
	err  error
}

func newTracedExec() *tracedExec { return &tracedExec{tr: newTracer()} }

// run is the traced counterpart of runSweep.
func (x *tracedExec) run(sw *experiment.Sweep) (sweepRun, error) {
	sample, err := smtfetch.ParseSample(sw.Sample)
	if err != nil {
		return sweepRun{}, err
	}
	ts := &tracedSweep{tracedExec: x, sw: sw, sample: sample, maxCyc: sw.MaxCycles, memo: map[string]*warmEntry{}}
	if ts.maxCyc == 0 {
		ts.maxCyc = defaultMaxCycles
	}
	t0 := time.Now()
	root := x.tr.begin("bench.sweep", 0, "")
	defer x.tr.end(root)
	sp := x.tr.begin("experiment.prepare", root, "")
	cells, err := sw.Prepare()
	x.tr.end(sp)
	if err != nil {
		return sweepRun{}, err
	}
	ts.runID = x.tr.begin("experiment.run_cells", root, "")
	ts.runT0 = time.Since(x.tr.t0)
	results, _ := sw.RunCells(cells, func(c experiment.Cell) (experiment.Result, bool) {
		return ts.cell(c), true
	})
	x.tr.end(ts.runID)
	sp = x.tr.begin("experiment.encode", root, "")
	blob, err := experiment.MarshalJSONResults(results)
	x.tr.end(sp)
	if err != nil {
		return sweepRun{}, err
	}
	return sweepRun{results: results, json: blob, wall: time.Since(t0)}, nil
}

// cell executes one cell as experiment's runner would: cold under its own
// policy, or, in warm-fork mode, forked from its group's checkpoint.
func (x *tracedSweep) cell(c experiment.Cell) experiment.Result {
	key := c.Key()
	id := x.tr.begin("smtfetch.cell", x.runID, key)
	defer x.tr.end(id)
	x.poolWait.Add(int64(time.Since(x.tr.t0) - x.runT0))
	r := experiment.Result{
		Workload: c.Workload,
		Engine:   c.Engine.String(),
		Policy:   c.Policy.String(),
		Seed:     c.Seed,
	}
	fail := func(err error) experiment.Result {
		r.Error = err.Error()
		return r
	}
	var sim *core.Sim
	switch x.sw.WarmFork {
	case experiment.WarmForkOff:
		s, err := x.newSim(c, c.Policy, experiment.CellSeed(c), id)
		if err != nil {
			return fail(err)
		}
		x.warm(s, id, key)
		sim = s
	case experiment.WarmForkFork:
		canon := c
		canon.Policy.Policy = config.ICount
		s, err := x.newSim(c, canon.Policy, experiment.CellSeed(canon), id)
		if err != nil {
			return fail(err)
		}
		blob, err := x.checkpoint(c, canon, id)
		if err != nil {
			return fail(fmt.Errorf("warm checkpoint: %w", err))
		}
		sp := x.tr.begin("core.restore", id, key)
		err = s.Restore(blob)
		x.tr.end(sp)
		if err != nil {
			return fail(fmt.Errorf("warm checkpoint restore: %w", err))
		}
		sp = x.tr.begin("core.set_policy", id, key)
		err = s.SetPolicy(c.Policy)
		x.tr.end(sp)
		if err != nil {
			return fail(err)
		}
		sim = s
	default:
		return fail(fmt.Errorf("perfbench: traced executor does not support warm-fork mode %q", x.sw.WarmFork))
	}
	if err := x.measure(sim, id, key, &r); err != nil {
		return fail(err)
	}
	return r
}

// newSim builds the simulator smtfetch.New would: one program per thread
// from a SplitMix64 stream of the seed, then the core from the next value.
func (x *tracedSweep) newSim(c experiment.Cell, policy config.FetchPolicy, seed uint64, parent int) (*core.Sim, error) {
	w, err := bench.WorkloadByName(c.Workload)
	if err != nil {
		return nil, err
	}
	mc := config.Default()
	if x.sw.Machine != nil {
		mc = *x.sw.Machine
	}
	mc.Engine = c.Engine
	mc.FetchPolicy = policy
	st := seed
	programs := make([]*prog.Program, len(w.Benchmarks))
	for i, name := range w.Benchmarks {
		p, err := bench.Profile(name)
		if err != nil {
			return nil, err
		}
		sp := x.tr.begin("prog.build", parent, name)
		programs[i] = prog.Build(p, rng.SplitMix64(&st))
		x.tr.end(sp)
	}
	sp := x.tr.begin("core.new", parent, c.Key())
	defer x.tr.end(sp)
	return core.New(mc, programs, rng.SplitMix64(&st))
}

// warm is smtfetch.Simulator.Warm.
func (x *tracedSweep) warm(s *core.Sim, parent int, key string) {
	sp := x.tr.begin("core.warm", parent, key)
	c0 := s.Cycles()
	s.Run(x.sw.WarmupInstrs, x.maxCyc)
	if x.sw.WarmupCycles > 0 {
		s.RunCycles(x.sw.WarmupCycles)
	}
	x.tr.end(sp)
	d := s.Cycles() - c0
	x.warmCycles.Add(d)
	x.simCycles.Add(d)
}

// checkpoint returns the warm group's checkpoint, building it once per
// warm key like experiment's per-sweep memo. The experiment.warm_memo span
// covers the lookup, so a cell's wait for another worker's build is that
// span's self time.
func (x *tracedSweep) checkpoint(c, canon experiment.Cell, parent int) ([]byte, error) {
	key := x.sw.WarmKey(c)
	memo := x.tr.begin("experiment.warm_memo", parent, key)
	defer x.tr.end(memo)
	x.memoMu.Lock()
	e := x.memo[key]
	if e == nil {
		e = &warmEntry{}
		x.memo[key] = e
	}
	x.memoMu.Unlock()
	e.once.Do(func() {
		x.groupsBuilt.Add(1)
		g := x.tr.begin("experiment.warm_group", memo, key)
		defer x.tr.end(g)
		s, err := x.newSim(canon, canon.Policy, experiment.CellSeed(canon), g)
		if err != nil {
			e.err = err
			return
		}
		x.warm(s, g, key)
		sp := x.tr.begin("core.snapshot", g, key)
		e.blob, e.err = s.Snapshot()
		x.tr.end(sp)
		x.snapBytes.Add(uint64(len(e.blob)))
	})
	return e.blob, e.err
}

// measure is smtfetch.Simulator.Measure, filling r as experiment's
// fillResult does. Sampled measurement repeats smtfetch's detail /
// drain / fast-forward loop call for call.
func (x *tracedSweep) measure(s *core.Sim, parent int, key string, r *experiment.Result) error {
	sp := x.tr.begin("core.measure", parent, key)
	defer x.tr.end(sp)
	s.ResetStats()
	c0 := s.Cycles()
	var drained uint64
	defer func() {
		d := s.Cycles() - c0
		x.simCycles.Add(d)
		x.measCycles.Add(d - drained)
	}()
	if !x.sample.Enabled() {
		st := s.Run(x.sw.MeasureInstrs, x.maxCyc)
		snap := st.Snapshot()
		r.IPC, r.IPFC, r.CondAccuracy, r.Stats = st.IPC(), st.IPFC(), st.CondAccuracy(), &snap
		return nil
	}
	smp := x.sample
	var ipcs []float64
	var measured uint64
	shares := make([]uint64, len(s.Stats().PerThread))
	pt0 := make([]uint64, len(shares))
	for t, ts := range s.Stats().PerThread {
		pt0[t] = ts.Committed
	}
	for measured < x.sw.MeasureInstrs {
		if smp.WarmInstrs > 0 {
			s.Run(smp.WarmInstrs, x.maxCyc)
		}
		st := s.Stats()
		c0, i0 := st.Cycles, st.Committed
		s.Run(smp.DetailInstrs, x.maxCyc)
		st = s.Stats()
		dc, di := st.Cycles-c0, st.Committed-i0
		if dc == 0 || di == 0 {
			return fmt.Errorf("smtfetch: sampled detail interval made no progress (cycle bound %d too small?)", x.maxCyc)
		}
		ipcs = append(ipcs, float64(di)/float64(dc))
		measured += di
		if measured >= x.sw.MeasureInstrs {
			break
		}
		for t, ts := range st.PerThread {
			shares[t] = ts.Committed - pt0[t]
		}
		d := x.tr.begin("core.drain", sp, key)
		before := s.Cycles()
		err := s.Drain(x.maxCyc)
		drained += s.Cycles() - before
		x.drainCycles.Add(s.Cycles() - before)
		x.tr.end(d)
		if err != nil {
			return err
		}
		f := x.tr.begin("core.fastforward", sp, key)
		err = s.FastForwardShares(smp.SkipInstrs, shares)
		x.tr.end(f)
		x.ffInstrs.Add(smp.SkipInstrs)
		if err != nil {
			return err
		}
	}
	mean, ci := meanCI95(ipcs)
	st := s.Stats()
	snap := st.Snapshot()
	r.IPC, r.IPFC, r.CondAccuracy, r.Stats = mean, st.IPFC(), st.CondAccuracy(), &snap
	r.SampleIntervals, r.IPCCI95 = len(ipcs), ci
	return nil
}

// meanCI95 is smtfetch's sampled-IPC estimate: the mean and 1.96 standard
// errors of the interval IPCs.
func meanCI95(xs []float64) (mean, ci float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, 1.96 * math.Sqrt(ss/(n-1)) / math.Sqrt(n)
}

// layerMetrics reports the prog, core and experiment layers from the
// spans and counters of one traced sweep.
func (x *tracedExec) layerMetrics(ms *metricSet) {
	st := byName(x.tr.snapshot())
	mean := func(name string, unit time.Duration) float64 {
		s := st[name]
		if s.n == 0 {
			return 0
		}
		return float64(s.selfSum()) / float64(unit) / float64(s.n)
	}
	total := func(name string) float64 { return st[name].selfSum().Seconds() }
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	count := func(name string) string { return fmt.Sprintf("mean over %d calls", st[name].n) }
	news := st["core.new"].n
	ms.add("prog.build_ms", per(float64(st["prog.build"].selfSum())/float64(time.Millisecond), float64(news)),
		fmt.Sprintf("prog.Build self time per simulator built (all its threads), mean over %d simulators", news))
	ms.add("core.new_ms", mean("core.new", time.Millisecond), count("core.new"))
	ms.add("core.warm_s", total("core.warm"), fmt.Sprintf("total over %d warm-ups", st["core.warm"].n))
	ms.add("core.measure_s", total("core.measure"), fmt.Sprintf("total self time over %d measured cells, drains and fast-forwards excluded", st["core.measure"].n))
	ms.add("core.measure_ns_per_cycle", per(total("core.measure")*1e9, float64(x.measCycles.Load())),
		fmt.Sprintf("over %d measured cycles", x.measCycles.Load()))
	ms.add("core.warm_kcyc_per_s", per(float64(x.warmCycles.Load())/1000, total("core.warm")),
		fmt.Sprintf("over %d warm-up cycles", x.warmCycles.Load()))
	ms.add("core.snapshot_ms", mean("core.snapshot", time.Millisecond), count("core.snapshot"))
	ms.add("core.snapshot_bytes", per(float64(x.snapBytes.Load()), float64(st["core.snapshot"].n)), count("core.snapshot"))
	ms.add("core.restore_ms", mean("core.restore", time.Millisecond), count("core.restore"))
	ms.add("core.set_policy_us", mean("core.set_policy", time.Microsecond), count("core.set_policy"))
	ms.add("core.drain_ms", mean("core.drain", time.Millisecond), count("core.drain"))
	ms.add("core.drain_cycles", per(float64(x.drainCycles.Load()), float64(st["core.drain"].n)), count("core.drain"))
	ms.add("core.fastforward_ms", mean("core.fastforward", time.Millisecond), count("core.fastforward"))
	ms.add("core.fastforward_ns_per_instr", per(total("core.fastforward")*1e9, float64(x.ffInstrs.Load())),
		fmt.Sprintf("over %d fast-forwarded instructions", x.ffInstrs.Load()))
	ms.add("experiment.prepare_ms", mean("experiment.prepare", time.Millisecond), "Sweep.Prepare")
	ms.add("experiment.pool_wait_s", time.Duration(x.poolWait.Load()).Seconds(), "summed over cells: RunCells start to a worker taking the cell")
	ms.add("experiment.encode_ms", mean("experiment.encode", time.Millisecond), "MarshalJSONResults")
	ms.add("experiment.warm_groups_built", float64(x.groupsBuilt.Load()), "warm checkpoints built")
}
