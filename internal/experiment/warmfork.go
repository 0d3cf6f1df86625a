package experiment

// Warm-state checkpoint sharing across sweep cells.
//
// A sweep's fetch-policy axis multiplies its wall clock by the number of
// policies, yet every policy cell of one (workload, engine, T.W shape,
// seed) group spends its warm-up phase doing nearly identical work. The
// warm-fork modes collapse that: the group is warmed ONCE under a
// canonical policy (ICOUNT with the cell's thread/width shape — chosen
// because ICOUNT never puts FLUSH replay state in flight, which is the
// one condition under which core.Sim.SetPolicy refuses to switch), the
// warmed state is checkpointed with core.Sim.Snapshot, and each cell is
// forked from the checkpoint via Restore + SetPolicy + Measure.
//
// Because all cells of a group must consume the same warm-up, the
// simulator seed in these modes is the CANONICAL cell's seed, not the
// per-cell one — which is why warm-fork is opt-in rather than the
// default: its results are not comparable against default-mode baselines
// cell-for-cell. WarmForkRerun exists as the audit path: it derives seeds
// identically and re-simulates the identical canonical warm-up for every
// cell without checkpointing, so `fork` and `rerun` sweeps must produce
// byte-identical output files (CI compares them with cmp).

import (
	"sync"

	"smtfetch/internal/config"
	"smtfetch/internal/flight"
)

// Warm-fork modes for Sweep.WarmFork.
const (
	// WarmForkOff warms every cell independently under its own policy.
	WarmForkOff = ""
	// WarmForkFork warms once per group, checkpoints, and forks cells.
	WarmForkFork = "fork"
	// WarmForkRerun re-simulates the canonical warm-up per cell; the
	// reference path WarmForkFork must match byte-for-byte.
	WarmForkRerun = "rerun"
)

// canonicalCell maps a cell to its warm-up group representative: the
// ICOUNT policy with the cell's thread/width shape. Cells differing only
// in the policy heuristic share a representative; cells with different
// T.W shapes do not (SetPolicy refuses bandwidth changes, since fetch
// buffer and selection structures are sized by them).
func canonicalCell(c Cell) Cell {
	c.Policy.Policy = config.ICount
	return c
}

// snapMemo holds the warm checkpoints built so far in this sweep, keyed
// by warm key. Only successful builds are stored, so a failed one is
// retried by the next cell that needs it.
type snapMemo struct {
	flight flight.Group[[]byte]
	blobs  sync.Map
}

// snapshotFor returns the warm checkpoint for key, building it at most
// once per sweep and routing through SnapshotSource (the cross-sweep
// cache) when one is installed.
func (s *Sweep) snapshotFor(key string, build func() ([]byte, error)) ([]byte, error) {
	wrapped := build
	if s.SnapshotSource != nil {
		wrapped = func() ([]byte, error) { return s.SnapshotSource(key, build) }
	}
	m := s.snap
	if m == nil {
		// Direct ExecuteCell call outside a cell runner: correct, just unmemoized.
		return wrapped()
	}
	// The lookup runs inside the flight, so a checkpoint stored by a
	// leader that finished a moment ago is never built a second time.
	return m.flight.Do(key, func() ([]byte, error) {
		if blob, ok := m.blobs.Load(key); ok {
			return blob.([]byte), nil
		}
		blob, err := wrapped()
		if err == nil {
			m.blobs.Store(key, blob)
		}
		return blob, err
	})
}
