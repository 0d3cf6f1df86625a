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
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"

	"smtfetch"
	"smtfetch/internal/config"
	"smtfetch/internal/core"
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

// WarmKey identifies a warm checkpoint: a hex FNV-64a over a canonical
// JSON document of everything that shapes warmed state. WarmupInstrs and
// WarmupCycles are explicit, documented components — changing either
// changes the key, so a sweep with a different warm-up length can never
// be served a stale checkpoint (the cache-miss regression test pins
// this). The machine description keeps its engine and canonical policy,
// unlike server.Fingerprint's result keys, because warmed predictor and
// cache state depends on both. The snapshot format version is folded in
// so format bumps invalidate cached blobs instead of failing restores.
func (s *Sweep) WarmKey(c Cell) string {
	return s.warmKeyAt(core.SnapshotVersion, c)
}

// warmKeyAt is WarmKey with an explicit snapshot format version, split out
// so tests can pin that the version is a live key component (a format bump
// must change every warm key).
func (s *Sweep) warmKeyAt(snapshotVersion int, c Cell) string {
	canon := canonicalCell(c)
	mc := config.Default()
	if s.Machine != nil {
		mc = *s.Machine
	}
	mc.Engine = canon.Engine
	mc.FetchPolicy = canon.Policy
	doc := struct {
		SnapshotVersion int           `json:"snapshot_version"`
		Cell            string        `json:"cell"`
		WarmupInstrs    uint64        `json:"warmup_instrs"`
		WarmupCycles    uint64        `json:"warmup_cycles"`
		MaxCycles       uint64        `json:"max_cycles"`
		Machine         config.Config `json:"machine"`
	}{
		SnapshotVersion: snapshotVersion,
		Cell:            canon.Key(),
		WarmupInstrs:    s.WarmupInstrs,
		WarmupCycles:    s.WarmupCycles,
		MaxCycles:       s.MaxCycles,
		Machine:         mc,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(fmt.Sprintf("experiment: warm key not serializable: %v", err))
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
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
		// Direct ExecuteCell call outside RunCells: correct, just unmemoized.
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

// runWarmFork executes one cell in a warm-fork mode. Both modes build the
// measuring simulator from identical options (canonical policy, group
// seed); they differ only in how it reaches the warmed state — rerun
// simulates the warm-up, fork restores the group checkpoint — after which
// both switch to the cell's policy and measure.
func runWarmFork(s *Sweep, c Cell) Result {
	r := Result{
		Workload: c.Workload,
		Engine:   c.Engine.String(),
		Policy:   c.Policy.String(),
		Seed:     c.Seed,
	}
	fail := func(err error) Result {
		r.Error = err.Error()
		return r
	}
	sample, err := smtfetch.ParseSample(s.Sample)
	if err != nil {
		return fail(err)
	}
	canon := canonicalCell(c)
	opts := smtfetch.Options{
		Workload:      c.Workload,
		Engine:        c.Engine,
		Policy:        canon.Policy,
		Seed:          CellSeed(canon),
		WarmupInstrs:  s.WarmupInstrs,
		WarmupCycles:  s.WarmupCycles,
		MeasureInstrs: s.MeasureInstrs,
		MaxCycles:     s.MaxCycles,
		Machine:       s.Machine,
		Sample:        sample,
	}
	sim, err := smtfetch.New(opts)
	if err != nil {
		return fail(err)
	}
	switch s.WarmFork {
	case WarmForkRerun:
		sim.Warm()
	case WarmForkFork:
		blob, err := s.snapshotFor(s.WarmKey(c), func() ([]byte, error) {
			warm, err := smtfetch.New(opts)
			if err != nil {
				return nil, err
			}
			warm.Warm()
			return warm.Core().Snapshot()
		})
		if err != nil {
			return fail(fmt.Errorf("warm checkpoint: %w", err))
		}
		if err := sim.Core().Restore(blob); err != nil {
			return fail(fmt.Errorf("warm checkpoint restore: %w", err))
		}
	default:
		return fail(fmt.Errorf("experiment: unknown warm-fork mode %q", s.WarmFork))
	}
	if err := sim.Core().SetPolicy(c.Policy); err != nil {
		return fail(err)
	}
	res, err := sim.Measure()
	if err != nil {
		return fail(err)
	}
	fillResult(&r, res)
	return r
}
