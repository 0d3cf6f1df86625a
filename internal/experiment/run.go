package experiment

import (
	"fmt"

	"smtfetch"
)

// runner executes a single cell. It is a package variable so tests can
// substitute a fast fake simulator when exercising pool mechanics; real
// sweeps always go through the public smtfetch API.
var runner = func(s *Sweep, c Cell) Result {
	res, err := s.runCell(c)
	return NewResult(c, res, err)
}

// runCell is the one execution path for every mode: build the simulator,
// reach the warmed state, switch to the cell's policy when the warm-up ran
// under the canonical one, and measure.
func (s *Sweep) runCell(c Cell) (*smtfetch.Result, error) {
	opts, err := s.cellOptions(c)
	if err != nil {
		return nil, err
	}
	sim, err := smtfetch.New(opts)
	if err != nil {
		return nil, err
	}
	if err := s.warm(sim, c, opts); err != nil {
		return nil, err
	}
	if s.WarmFork != WarmForkOff {
		if err := sim.Core().SetPolicy(c.Policy); err != nil {
			return nil, err
		}
	}
	return sim.Measure()
}

// cellOptions builds a cell's simulator options. In the warm-fork modes
// every cell of a warm group simulates the same warm-up, so the canonical
// cell's policy stands in for the cell's own until Measure.
func (s *Sweep) cellOptions(c Cell) (smtfetch.Options, error) {
	sample, err := smtfetch.ParseSample(s.Sample)
	if err != nil {
		return smtfetch.Options{}, err
	}
	policy := c.Policy
	switch s.WarmFork {
	case WarmForkOff:
	case WarmForkFork, WarmForkRerun:
		policy = canonicalCell(c).Policy
	default:
		return smtfetch.Options{}, fmt.Errorf("experiment: unknown warm-fork mode %q", s.WarmFork)
	}
	return smtfetch.Options{
		Workload:      c.Workload,
		Engine:        c.Engine,
		Policy:        policy,
		Seed:          CellSeed(c),
		WarmupInstrs:  s.WarmupInstrs,
		WarmupCycles:  s.WarmupCycles,
		MeasureInstrs: s.MeasureInstrs,
		MaxCycles:     s.MaxCycles,
		Machine:       s.Machine,
		Sample:        sample,
	}, nil
}

// warm brings sim to the warmed state: by simulating the warm-up, or in
// fork mode by restoring the group checkpoint, built from the same options
// at most once per warm key.
func (s *Sweep) warm(sim *smtfetch.Simulator, c Cell, opts smtfetch.Options) error {
	if s.WarmFork != WarmForkFork {
		sim.Warm()
		return nil
	}
	blob, err := s.snapshotFor(s.WarmKey(c), func() ([]byte, error) {
		warm, err := smtfetch.New(opts)
		if err != nil {
			return nil, err
		}
		warm.Warm()
		return warm.Core().Snapshot()
	})
	if err != nil {
		return fmt.Errorf("warm checkpoint: %w", err)
	}
	if err := sim.Core().Restore(blob); err != nil {
		return fmt.Errorf("warm checkpoint restore: %w", err)
	}
	return nil
}

// NewResult is a cell's result: the simulator's figures when err is nil,
// else the failure message.
func NewResult(c Cell, res *smtfetch.Result, err error) Result {
	r := Result{
		Workload: c.Workload,
		Engine:   c.Engine.String(),
		Policy:   c.Policy.String(),
		Seed:     c.Seed,
	}
	if err != nil {
		r.Error = err.Error()
		return r
	}
	snap := res.Stats.Snapshot()
	r.IPC = res.IPC
	r.IPFC = res.IPFC
	r.CondAccuracy = res.CondAccuracy
	r.Stats = &snap
	r.SampleIntervals = res.SampleIntervals
	r.IPCCI95 = res.IPCCI95
	return r
}
