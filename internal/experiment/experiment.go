// Package experiment is the sweep harness over the simulator: it expands a
// cross-product of fetch engines × fetch policies × workloads × seeds into
// cells, runs them on a bounded pool of goroutines, and aggregates the
// per-cell results into deterministically ordered, machine-readable output.
//
// Determinism is a hard requirement: each cell's effective seed is derived
// from the cell's identity (not from execution order), and the aggregated
// results are sorted by cell key, so a sweep produces bit-identical JSON
// whether it runs on one worker or sixteen, full or filtered.
package experiment

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"smtfetch"
	"smtfetch/internal/bench"
	"smtfetch/internal/config"
	"smtfetch/internal/rng"
)

// Cell is one point of the sweep grid.
type Cell struct {
	Workload string
	Engine   config.Engine
	Policy   config.FetchPolicy
	// Seed is the replication-axis value (the paper's runs are
	// single-seed; multiple seeds give confidence intervals). The seed the
	// simulator actually consumes is derived from it plus the cell
	// identity; see CellSeed.
	Seed uint64
}

// Key is the cell's stable identity string, used for sorting, seed
// derivation, and matching cells across results files.
func (c Cell) Key() string {
	return fmt.Sprintf("%s/%s/%s/%d", c.Workload, c.Engine, c.Policy, c.Seed)
}

// CellSeed derives the simulator seed for a cell. It hashes the cell's
// identity and mixes it through SplitMix64, so the effective seed depends
// only on what the cell is — never on worker count, execution order, or
// which other cells the sweep happens to contain.
func CellSeed(c Cell) uint64 {
	h := fnv.New64a()
	h.Write([]byte(c.Key()))
	st := h.Sum64()
	s := rng.SplitMix64(&st)
	if s == 0 {
		s = 1 // Options.Seed treats 0 as "use the package default"
	}
	return s
}

// Sweep describes an experiment grid. Zero-value axes default to the
// paper's full study: all three engines, the four ICOUNT.T.W policies, and
// every Table 2 workload, one seed.
type Sweep struct {
	// Engines, Policies, Workloads, Seeds are the grid axes. Empty axes
	// take the paper defaults (Seeds defaults to {1}).
	Engines   []config.Engine      //smtfetch:nonsemantic grid axis; each cell's identity enters the keys via Cell.Key
	Policies  []config.FetchPolicy //smtfetch:nonsemantic grid axis; each cell's identity enters the keys via Cell.Key
	Workloads []string             //smtfetch:nonsemantic grid axis; each cell's identity enters the keys via Cell.Key
	Seeds     []uint64             //smtfetch:nonsemantic grid axis; each cell's identity enters the keys via Cell.Key

	// Filter, when non-nil, keeps only cells it returns true for.
	Filter func(Cell) bool //smtfetch:nonsemantic selects which cells run, never changes a cell result

	// Jobs bounds the worker pool; <= 0 means runtime.NumCPU().
	Jobs int //smtfetch:nonsemantic worker-pool size, scheduling only

	// Simulation phase lengths; zero values take the smtfetch defaults
	// (200k warmup, 1M measure, 50M max cycles). WarmupCycles adds a
	// fixed cycle-based warm-up phase after the instruction-based one.
	WarmupInstrs  uint64
	WarmupCycles  uint64
	MeasureInstrs uint64
	MaxCycles     uint64

	// Machine overrides the Table 3 configuration when non-nil.
	Machine *config.Config

	// Sample enables SMARTS-style sampled measurement per cell, in
	// smtfetch's "detail:N,skip:M" notation; empty measures every
	// instruction in full detail.
	Sample string

	// WarmFork selects warm-state checkpoint sharing across the cells of a
	// warm-up group (same workload, engine, policy shape T.W, and seed):
	// "" runs every cell cold under its own policy (the historical
	// behavior), WarmForkFork warms once per group under the canonical
	// ICOUNT policy, checkpoints, and forks every cell from the
	// checkpoint, and WarmForkRerun re-simulates the identical canonical
	// warm-up for every cell — the slow reference path whose output
	// WarmForkFork must match byte-for-byte. See warmfork.go.
	WarmFork string

	// SnapshotSource, when non-nil, mediates warm-checkpoint reuse across
	// sweeps (the server's snapshot cache tier): it receives the group's
	// warm key and a builder, and returns a cached blob or the builder's
	// output. Within one sweep checkpoints are additionally memoized per
	// warm key, so the source sees each key at most once per run; a
	// failed build is not memoized, and the next cell retries it.
	SnapshotSource func(key string, build func() ([]byte, error)) ([]byte, error) //smtfetch:nonsemantic checkpoint transport; blob identity is the WarmKey itself

	// OnResult, when non-nil, is called after each cell finishes with the
	// completed count, the total, and the cell's result. Calls are
	// serialized but arrive in completion order, not cell order.
	OnResult func(done, total int, r Result) //smtfetch:nonsemantic progress callback

	// snap memoizes warm checkpoints for the worker pool; set up by
	// runCells, shared by pointer so Sweep stays copyable.
	snap *snapMemo //smtfetch:nonsemantic per-run checkpoint memo, execution mechanics
}

// axes returns the grid axes with the paper defaults filled in.
func (s *Sweep) axes() (engines []config.Engine, policies []config.FetchPolicy, workloads []string, seeds []uint64) {
	engines, policies, workloads, seeds = s.Engines, s.Policies, s.Workloads, s.Seeds
	if len(engines) == 0 {
		engines = config.Engines()
	}
	if len(policies) == 0 {
		policies = config.FetchPolicies()
	}
	if len(workloads) == 0 {
		workloads = bench.WorkloadNames()
	}
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	return engines, policies, workloads, seeds
}

// GridSize is the number of cells the grid spans before the filter,
// computed without expanding it. It saturates at math.MaxInt, so a caller
// can bound a grid of any size before paying for its expansion.
func (s *Sweep) GridSize() int {
	engines, policies, workloads, seeds := s.axes()
	n := 1
	for _, l := range []int{len(engines), len(policies), len(workloads), len(seeds)} {
		if n > math.MaxInt/l {
			return math.MaxInt
		}
		n *= l
	}
	return n
}

// Cells expands the grid into its cell list in deterministic order
// (workload, then engine, then policy, then seed, each axis in the order
// given) after applying the filter.
func (s *Sweep) Cells() []Cell {
	engines, policies, workloads, seeds := s.axes()
	cells := make([]Cell, 0, len(workloads)*len(engines)*len(policies)*len(seeds))
	for _, w := range workloads {
		for _, e := range engines {
			for _, p := range policies {
				for _, sd := range seeds {
					c := Cell{Workload: w, Engine: e, Policy: p, Seed: sd}
					if s.Filter != nil && !s.Filter(c) {
						continue
					}
					cells = append(cells, c)
				}
			}
		}
	}
	return cells
}

// Validate checks the grid before any simulation starts: every workload
// must exist and every cell's machine configuration must validate.
func (s *Sweep) Validate() error {
	_, err := s.Prepare()
	return err
}

// Prepare expands the grid once and validates the resulting cells,
// returning them so callers can hand the same list to RunCells without
// re-expanding or re-validating. This is the single place grid validation
// happens; Validate and Run are built on it.
func (s *Sweep) Prepare() ([]Cell, error) {
	cells := s.Cells()
	if err := s.validateCells(cells); err != nil {
		return nil, err
	}
	return cells, nil
}

// validateCells checks an already-expanded cell list: non-empty, no
// duplicate keys, every workload known, every machine config valid.
func (s *Sweep) validateCells(cells []Cell) error {
	if len(cells) == 0 {
		return errors.New("experiment: sweep selects no cells")
	}
	if _, err := smtfetch.ParseSample(s.Sample); err != nil {
		return err
	}
	switch s.WarmFork {
	case WarmForkOff, WarmForkFork, WarmForkRerun:
	default:
		return fmt.Errorf("experiment: unknown warm-fork mode %q (want %q or %q)", s.WarmFork, WarmForkFork, WarmForkRerun)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		k := c.Key()
		if seen[k] {
			return fmt.Errorf("experiment: duplicate cell %s", k)
		}
		seen[k] = true
		if _, err := bench.WorkloadByName(c.Workload); err != nil {
			return err
		}
		mc := config.Default()
		if s.Machine != nil {
			mc = *s.Machine
		}
		mc.Engine = c.Engine
		mc.FetchPolicy = c.Policy
		if err := mc.Validate(); err != nil {
			return fmt.Errorf("experiment: cell %s: %w", k, err)
		}
	}
	return nil
}

// ResultSource supplies a completed Result for a cell without executing
// the simulator, returning false when it has none. RunCells consults it
// before ExecuteCell, which lets a cache (or a remote shard) short-circuit
// cell execution without forking the worker-pool logic.
type ResultSource func(Cell) (Result, bool)

// Run expands, validates, and executes the sweep on a bounded worker pool.
// The returned results are sorted by cell key. Cells that fail are reported
// both in their Result.Error field and in the aggregated error.
func (s *Sweep) Run() ([]Result, error) {
	cells, err := s.Prepare()
	if err != nil {
		return nil, err
	}
	return s.RunCells(cells, nil)
}

// RunCells executes an already-validated cell list (from Prepare) on the
// bounded worker pool, handing cells to workers in list order. For each
// cell the source, when non-nil, is asked first; a (Result, true) answer
// is used verbatim and the simulator never runs. Results are sorted by
// cell key, and failed cells are reported both in their Result.Error
// field and in the aggregated error.
func (s *Sweep) RunCells(cells []Cell, src ResultSource) ([]Result, error) {
	results := make([]Result, 0, len(cells))
	s.runCells(cells, src, len(cells), func(r Result) error {
		results = append(results, r)
		return nil
	})
	SortResults(results)
	var errs []error
	for i := range results {
		if results[i].Error != "" {
			errs = append(errs, fmt.Errorf("experiment: cell %s: %s", results[i].Key(), results[i].Error))
		}
	}
	return results, errors.Join(errs...)
}

// resolveCell answers one cell from the source when it can, else executes.
func (s *Sweep) resolveCell(c Cell, src ResultSource) Result {
	if src != nil {
		if r, ok := src(c); ok {
			return r
		}
	}
	return s.ExecuteCell(c)
}

// ExecuteCell runs one cell on the simulator, bypassing any result source.
// It is the execution half of the pluggable seam: a caching source calls it
// on a miss and stores what it returns. Execution goes through run.go's
// runner variable so tests can substitute a fake simulator.
func (s *Sweep) ExecuteCell(c Cell) Result {
	return runner(s, c)
}
