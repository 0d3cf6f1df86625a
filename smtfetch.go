// Package smtfetch is a cycle-level simulator of simultaneous
// multithreading (SMT) fetch architectures, reproducing "A Low-Complexity,
// High-Performance Fetch Unit for Simultaneous Multithreading Processors"
// (Falcón, Ramirez, Valero — HPCA 2004).
//
// It models an 8-context SMT processor with a decoupled front-end (branch
// predictor -> per-thread fetch target queues -> fetch unit) and a shared
// out-of-order back-end, and lets you combine:
//
//   - three fetch engines: gshare+BTB (baseline), gskew+FTB, and the
//     stream fetch unit;
//   - the full SMT fetch-policy family in POLICY.T.W notation — up to W
//     instructions from up to T threads per cycle (the paper studies
//     ICOUNT and RR at 1.8, 2.8, 1.16, 2.16; BRCOUNT, MISSCOUNT, IQPOSN,
//     STALL, and FLUSH extend the study to the classic policies from the
//     literature);
//   - the paper's SPECint2000 workloads (Table 2), modelled synthetically.
//
// Quick start (CLI) — sweep the engine×policy grid over one workload on
// all CPUs and write machine-readable results:
//
//	go run ./cmd/smtfetch sweep -workloads 2_MIX -o results.json
//	go run ./cmd/smtfetch list                  # engines, policies, workloads
//	go run ./cmd/smtfetch run -workload 2_MIX -engine stream -policy ICOUNT.1.16
//	go run ./cmd/smtfetch compare base.json results.json -tol 0.02
//
// Quick start (library):
//
//	res, err := smtfetch.Run(smtfetch.Options{
//		Workload: "2_MIX",
//		Engine:   smtfetch.StreamFetch,
//		Policy:   smtfetch.ICount116,
//	})
//	fmt.Printf("IPC %.2f, IPFC %.2f\n", res.IPC, res.IPFC)
//
// Engines(), FetchPolicies(), and Workloads() enumerate the grid axes;
// ParseEngine and ParseFetchPolicy round-trip the String() names, so
// callers never hard-code them.
package smtfetch

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"smtfetch/internal/bench"
	"smtfetch/internal/config"
	"smtfetch/internal/core"
	"smtfetch/internal/prog"
	"smtfetch/internal/rng"
	"smtfetch/internal/stats"
)

// Re-exported fetch-engine selectors.
const (
	GShareBTB   = config.GShareBTB
	GSkewFTB    = config.GSkewFTB
	StreamFetch = config.StreamFetch
)

// Engine selects the fetch engine; see the config package for values.
type Engine = config.Engine

// Policy selects the thread-prioritization heuristic; see the config
// package for the semantics of each value.
type Policy = config.Policy

// Re-exported fetch-policy selectors: the paper's two plus the classic
// SMT fetch-policy family from the literature.
const (
	ICountPolicy = config.ICount
	RRPolicy     = config.RoundRobin
	BRCount      = config.BRCount
	MissCount    = config.MissCount
	IQPosn       = config.IQPosn
	Stall        = config.Stall
	Flush        = config.Flush
)

// FetchPolicy is the paper's POLICY.T.W notation.
type FetchPolicy = config.FetchPolicy

// The fetch policies the paper evaluates, plus the round-robin variants.
var (
	ICount18  = config.ICount18
	ICount28  = config.ICount28
	ICount116 = config.ICount116
	ICount216 = config.ICount216

	RR18  = config.RR18
	RR28  = config.RR28
	RR116 = config.RR116
	RR216 = config.RR216
)

// Engines lists the fetch engines in paper order.
func Engines() []Engine { return config.Engines() }

// Policies lists every implemented thread-selection policy (ICOUNT, RR,
// BRCOUNT, MISSCOUNT, IQPOSN, STALL, FLUSH).
func Policies() []Policy { return config.Policies() }

// FetchPolicies lists the four ICOUNT.T.W policies the paper's figures
// evaluate, in paper order.
func FetchPolicies() []FetchPolicy { return config.FetchPolicies() }

// AllFetchPolicies crosses every policy with the paper's four T.W shapes.
func AllFetchPolicies() []FetchPolicy { return config.AllFetchPolicies() }

// ParseEngine resolves an engine name ("gshare+BTB", "gskew+FTB",
// "stream", or the short aliases "gshare"/"gskew").
func ParseEngine(s string) (Engine, error) { return config.ParseEngine(s) }

// ParsePolicy resolves a bare policy name ("ICOUNT", "RR", "BRCOUNT",
// "MISSCOUNT", "IQPOSN", "STALL", "FLUSH"; case-insensitive).
func ParsePolicy(s string) (Policy, error) { return config.ParsePolicy(s) }

// ParseFetchPolicy parses POLICY.T.W notation, e.g. "ICOUNT.2.8",
// "FLUSH.2.8", or "RR.1.16"; it round-trips FetchPolicy.String.
func ParseFetchPolicy(s string) (FetchPolicy, error) { return config.ParseFetchPolicy(s) }

// MachineConfig is the full Table 3 machine description.
type MachineConfig = config.Config

// DefaultMachine returns the Table 3 configuration.
func DefaultMachine() MachineConfig { return config.Default() }

// Options selects what to simulate.
type Options struct {
	// Workload is a Table 2 workload name ("2_MIX", "4_ILP", ...).
	// Alternatively set Benchmarks explicitly.
	Workload string
	// Benchmarks lists per-thread benchmark names; it overrides Workload.
	Benchmarks []string
	// Engine is the fetch engine (default GShareBTB).
	Engine Engine
	// Policy is the fetch policy (default ICOUNT.1.8).
	Policy FetchPolicy
	// Machine overrides the default machine configuration when non-nil.
	Machine *MachineConfig
	// Seed makes runs reproducible; 0 means a fixed default seed.
	Seed uint64
	// WarmupInstrs are committed before statistics are reset
	// (default 200k).
	WarmupInstrs uint64
	// WarmupCycles, when non-zero, additionally runs the simulator for a
	// fixed number of cycles before statistics are reset (after the
	// instruction-based warm-up). Cycle-based warm-up gives every cell of
	// a sweep the same wall-clock shape regardless of its IPC.
	WarmupCycles uint64
	// MeasureInstrs are committed during measurement (default 1M).
	MeasureInstrs uint64
	// MaxCycles bounds each phase (default 50M).
	MaxCycles uint64
	// Sample, when enabled, switches measurement to SMARTS-style
	// sampling: detail intervals of Sample.DetailInstrs committed
	// instructions are measured in full cycle-level detail, separated by
	// Sample.SkipInstrs instructions of functional fast-forward (no
	// timing; caches and predictors stay warm). The zero value measures
	// every instruction in detail.
	Sample SampleSpec
}

// SampleSpec is a SMARTS-style sampled-measurement configuration, parsed
// from the CLI notation "detail:N,skip:M[,warm:W]". Measurement
// alternates detail intervals (N committed instructions, full cycle-level
// simulation) with functional fast-forward gaps (M instructions, no
// timing) until MeasureInstrs instructions have been measured in detail.
// The pipeline is drained between an interval and the following gap so
// every interval starts from an architecturally clean boundary; the
// optional warm:W component runs W instructions of detailed simulation
// before each interval, excluded from measurement, to refill the pipeline
// and re-establish policy-dependent in-flight state (SMARTS "detailed
// warming" — without it, policies whose behavior hinges on in-flight
// misses, FLUSH and STALL above all, are measured from an unrepresentative
// empty-pipeline state). Per-cell speedup is roughly (N+M)/(N+W), and the
// per-interval IPC spread yields a measured confidence bound on the
// sampled estimate (Result.IPCCI95).
type SampleSpec struct {
	// DetailInstrs is the committed-instruction length of each detail
	// interval (the N in "detail:N,skip:M").
	DetailInstrs uint64
	// SkipInstrs is the number of instructions fast-forwarded
	// functionally between detail intervals (the M).
	SkipInstrs uint64
	// WarmInstrs is the optional detailed-warming length: instructions
	// simulated in full detail immediately before each interval but
	// excluded from the measurement (the W in "warm:W"; 0 disables).
	WarmInstrs uint64
}

// Enabled reports whether the spec turns sampling on.
func (sp SampleSpec) Enabled() bool { return sp.DetailInstrs > 0 }

// String renders the CLI notation; the zero (disabled) spec renders "".
func (sp SampleSpec) String() string {
	if !sp.Enabled() {
		return ""
	}
	if sp.WarmInstrs > 0 {
		return fmt.Sprintf("detail:%d,skip:%d,warm:%d", sp.DetailInstrs, sp.SkipInstrs, sp.WarmInstrs)
	}
	return fmt.Sprintf("detail:%d,skip:%d", sp.DetailInstrs, sp.SkipInstrs)
}

// ParseSample parses "detail:N,skip:M[,warm:W]" (detail and skip
// required, all counts positive, in any order). The empty string is the
// disabled spec.
func ParseSample(s string) (SampleSpec, error) {
	var sp SampleSpec
	if s == "" {
		return sp, nil
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return SampleSpec{}, fmt.Errorf("smtfetch: bad sample component %q (want detail:N,skip:M)", part)
		}
		n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return SampleSpec{}, fmt.Errorf("smtfetch: bad sample count in %q: %v", part, err)
		}
		if n == 0 {
			return SampleSpec{}, fmt.Errorf("smtfetch: sample %s must be positive", k)
		}
		if seen[k] {
			return SampleSpec{}, fmt.Errorf("smtfetch: duplicate sample key %q", k)
		}
		seen[k] = true
		switch k {
		case "detail":
			sp.DetailInstrs = n
		case "skip":
			sp.SkipInstrs = n
		case "warm":
			sp.WarmInstrs = n
		default:
			return SampleSpec{}, fmt.Errorf("smtfetch: unknown sample key %q (want detail, skip, warm)", k)
		}
	}
	if sp.DetailInstrs == 0 || sp.SkipInstrs == 0 {
		return SampleSpec{}, fmt.Errorf("smtfetch: sample spec %q needs both detail:N and skip:M", s)
	}
	return sp, nil
}

func (o *Options) fill() error {
	if o.Policy.Width == 0 {
		o.Policy = ICount18
	}
	if o.Seed == 0 {
		o.Seed = 0x5317_F37C
	}
	if o.WarmupInstrs == 0 {
		o.WarmupInstrs = 200_000
	}
	if o.MeasureInstrs == 0 {
		o.MeasureInstrs = 1_000_000
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 50_000_000
	}
	if len(o.Benchmarks) == 0 {
		if o.Workload == "" {
			return fmt.Errorf("smtfetch: Options needs Workload or Benchmarks")
		}
		w, err := bench.WorkloadByName(o.Workload)
		if err != nil {
			return err
		}
		o.Benchmarks = w.Benchmarks
	}
	return nil
}

// Result summarizes one simulation.
type Result struct {
	// IPC is committed instructions per cycle (the paper's "Commit
	// Throughput").
	IPC float64
	// IPFC is instructions per fetch cycle (the paper's "Fetch
	// Throughput").
	IPFC float64
	// CondAccuracy is committed-path conditional branch prediction
	// accuracy.
	CondAccuracy float64
	// Stats exposes all raw counters. For sampled runs they cover the
	// detail intervals plus the drains between them, so derive IPC from
	// the IPC field (the per-interval estimate), not from Stats.
	Stats *stats.Stats
	// SampleIntervals is the number of detail intervals a sampled run
	// measured; 0 for full-detail runs.
	SampleIntervals int
	// IPCCI95 is the 95% confidence half-width of the sampled IPC
	// estimate, from the per-interval spread; 0 for full-detail runs.
	IPCCI95 float64
}

// Simulator is a configured simulation instance for callers that need
// cycle-level control; most callers can use Run.
type Simulator struct {
	sim  *core.Sim
	opts Options
}

// New builds a Simulator from options.
func New(opts Options) (*Simulator, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	mc := config.Default()
	if opts.Machine != nil {
		mc = *opts.Machine
	}
	mc.Engine = opts.Engine
	mc.FetchPolicy = opts.Policy

	st := opts.Seed
	programs := make([]*prog.Program, len(opts.Benchmarks))
	for i, name := range opts.Benchmarks {
		p, err := bench.Profile(name)
		if err != nil {
			return nil, err
		}
		programs[i] = prog.Build(p, rng.SplitMix64(&st))
	}
	sim, err := core.New(mc, programs, rng.SplitMix64(&st))
	if err != nil {
		return nil, err
	}
	return &Simulator{sim: sim, opts: opts}, nil
}

// Core exposes the underlying cycle-level simulator.
func (s *Simulator) Core() *core.Sim { return s.sim }

// Warm runs the warm-up phases (instruction-based, then the optional
// cycle-based one) without resetting statistics. A warm simulator can be
// checkpointed with Core().Snapshot() and later forked into measurement
// via Core().Restore() + Measure().
func (s *Simulator) Warm() {
	s.sim.Run(s.opts.WarmupInstrs, s.opts.MaxCycles)
	if s.opts.WarmupCycles > 0 {
		s.sim.RunCycles(s.opts.WarmupCycles)
	}
}

// Measure resets statistics and runs the measurement phase — in full
// detail by default, SMARTS-style sampled when Options.Sample is set.
// Instruction conservation (core.Sim.CheckFlow) is checked at both ends
// of the phase, so a result never comes from a leaking pipeline.
func (s *Simulator) Measure() (*Result, error) {
	if err := s.sim.CheckFlow(); err != nil {
		return nil, fmt.Errorf("smtfetch: after warm-up: %w", err)
	}
	s.sim.ResetStats()
	var res *Result
	if !s.opts.Sample.Enabled() {
		st := s.sim.Run(s.opts.MeasureInstrs, s.opts.MaxCycles)
		res = &Result{
			IPC:          st.IPC(),
			IPFC:         st.IPFC(),
			CondAccuracy: st.CondAccuracy(),
			Stats:        st,
		}
	} else {
		var err error
		if res, err = s.measureSampled(); err != nil {
			return nil, err
		}
	}
	if err := s.sim.CheckFlow(); err != nil {
		return nil, fmt.Errorf("smtfetch: after measurement: %w", err)
	}
	return res, nil
}

// measureSampled alternates detail intervals with drain + functional
// fast-forward until MeasureInstrs instructions have been measured in
// detail. Interval IPC is taken over the detail window only (the drain
// cycles fall between windows, and the optional detailed warming runs
// before the window's start marker), and the run-level estimate is the
// mean of the interval IPCs with a 1.96·s/√k confidence half-width.
func (s *Simulator) measureSampled() (*Result, error) {
	sp := s.opts.Sample
	var ipcs []float64
	var measured uint64
	// Per-thread commit counts accumulated across every detailed chunk
	// (warming included) become the fast-forward shares below, so the
	// policy-dependent thread-progress skew observed in detail keeps
	// accumulating through the functional gaps. Cumulative counts — not
	// per-interval deltas — deliberately damp the estimate: apportioning a
	// gap at the previous interval's instantaneous skew feeds the skew
	// back on itself and runs away on 4-thread mixes.
	shares := make([]uint64, len(s.sim.Stats().PerThread))
	pt0 := make([]uint64, len(shares))
	for t, ts := range s.sim.Stats().PerThread {
		pt0[t] = ts.Committed
	}
	for measured < s.opts.MeasureInstrs {
		if sp.WarmInstrs > 0 {
			s.sim.Run(sp.WarmInstrs, s.opts.MaxCycles)
		}
		st := s.sim.Stats()
		c0, i0 := st.Cycles, st.Committed
		s.sim.Run(sp.DetailInstrs, s.opts.MaxCycles)
		st = s.sim.Stats()
		dc, di := st.Cycles-c0, st.Committed-i0
		if dc == 0 || di == 0 {
			return nil, fmt.Errorf("smtfetch: sampled detail interval made no progress (cycle bound %d too small?)", s.opts.MaxCycles)
		}
		ipcs = append(ipcs, float64(di)/float64(dc))
		measured += di
		if measured >= s.opts.MeasureInstrs {
			break
		}
		for t, ts := range st.PerThread {
			shares[t] = ts.Committed - pt0[t]
		}
		// Empty the pipeline so the fast-forward hands the front-end an
		// architecturally clean boundary, then skip ahead without timing,
		// apportioning progress at the interval's per-thread commit ratio.
		if err := s.sim.Drain(s.opts.MaxCycles); err != nil {
			return nil, err
		}
		if err := s.sim.FastForwardShares(sp.SkipInstrs, shares); err != nil {
			return nil, err
		}
	}
	mean, ci := meanCI95(ipcs)
	st := s.sim.Stats()
	return &Result{
		IPC:             mean,
		IPFC:            st.IPFC(),
		CondAccuracy:    st.CondAccuracy(),
		Stats:           st,
		SampleIntervals: len(ipcs),
		IPCCI95:         ci,
	}, nil
}

// meanCI95 returns the sample mean and the 95% confidence half-width
// (1.96 standard errors) of xs; the half-width is 0 for fewer than two
// samples.
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

// Run executes warm-up then measurement and returns the result.
func (s *Simulator) Run() (*Result, error) {
	s.Warm()
	return s.Measure()
}

// Run is the one-call API: build a simulator from opts, run it, and return
// the result.
func Run(opts Options) (*Result, error) {
	s, err := New(opts)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// Workloads returns the Table 2 workload names in paper order.
func Workloads() []string {
	ws := bench.Workloads()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// Benchmarks returns the SPECint2000 benchmark names.
func Benchmarks() []string { return bench.Names() }
