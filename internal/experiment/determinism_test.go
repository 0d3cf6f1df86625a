package experiment

import (
	"testing"

	"smtfetch/internal/config"
)

// TestSweepDeterminismAcrossJobs runs a real (but short) sweep twice — one
// worker vs eight — and requires bit-identical JSON. This is the harness
// property every future perf PR leans on: parallelism must never perturb
// results.
func TestSweepDeterminismAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulator sweep; skipped with -short")
	}
	newSweep := func(jobs int) Sweep {
		return Sweep{
			Workloads:     []string{"2_MIX"},
			Engines:       []config.Engine{config.GShareBTB, config.StreamFetch},
			Policies:      []config.FetchPolicy{config.ICount18, config.ICount116},
			Seeds:         []uint64{1, 2},
			Jobs:          jobs,
			WarmupInstrs:  5_000,
			MeasureInstrs: 10_000,
		}
	}

	run := func(jobs int) string {
		s := newSweep(jobs)
		results, err := s.Run()
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		b, err := MarshalJSONResults(results)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	serial := run(1)
	parallel := run(8)
	if serial != parallel {
		t.Fatal("sweep JSON differs between -jobs 1 and -jobs 8")
	}
}

// TestSweepFilteredSubsetMatchesFullGrid checks that filtering does not
// change per-cell results: a cell's derived seed depends on its workload
// and seed, not on which other cells ran beside it.
func TestSweepFilteredSubsetMatchesFullGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulator sweep; skipped with -short")
	}
	base := Sweep{
		Workloads:     []string{"2_MIX"},
		Engines:       []config.Engine{config.GShareBTB, config.StreamFetch},
		Policies:      []config.FetchPolicy{config.ICount18},
		Jobs:          4,
		WarmupInstrs:  5_000,
		MeasureInstrs: 10_000,
	}
	full, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}

	sub := base
	sub.Filter = func(c Cell) bool { return c.Engine == config.StreamFetch }
	filtered, err := sub.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered) != 1 {
		t.Fatalf("filtered sweep has %d cells, want 1", len(filtered))
	}
	var match *Result
	for i := range full {
		if full[i].Key() == filtered[0].Key() {
			match = &full[i]
		}
	}
	if match == nil {
		t.Fatalf("cell %s absent from full grid", filtered[0].Key())
	}
	if match.IPC != filtered[0].IPC || match.Stats.Committed != filtered[0].Stats.Committed {
		t.Fatal("filtered cell result differs from the same cell in the full grid")
	}
}
