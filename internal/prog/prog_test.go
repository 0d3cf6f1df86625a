package prog_test

import (
	"math"
	"reflect"
	"testing"

	"smtfetch/internal/bench"
	"smtfetch/internal/isa"
	"smtfetch/internal/prog"
)

// trace returns the first n instructions of p's committed-path stream.
func trace(p *prog.Program, seed uint64, n int) []isa.Instruction {
	s := p.NewStream(seed)
	out := make([]isa.Instruction, n)
	for i := range out {
		out[i] = *s.Peek(0)
		s.Advance(1)
	}
	return out
}

// TestBuildDeterministic: a (profile, seed) pair names one program and one
// instruction stream. Every cell of a (workload, seed) simulates the
// programs this builds, so nondeterminism here would make cells that must
// agree diverge.
func TestBuildDeterministic(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "twolf"} {
		pf := bench.MustProfile(name)
		a, b := prog.Build(pf, 7), prog.Build(pf, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two builds at seed 7 differ", name)
		}
		if !reflect.DeepEqual(trace(a, 7, 20_000), trace(b, 7, 20_000)) {
			t.Errorf("%s: the first 20k stream instructions differ between builds", name)
		}
		if reflect.DeepEqual(trace(a, 7, 2_000), trace(prog.Build(pf, 8), 8, 2_000)) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", name)
		}
	}
}

// TestProfilesMatchTable1 checks every benchmark's synthetic program
// against its profile on seeds 1–8:
//   - the block count is exactly StaticBlocks;
//   - AvgStaticBBSize is within 6% of AvgBBSize (Table 1) at every seed
//     (the largest gap measured is 5.1%, mcf);
//   - over the first 200k instructions of each seed's stream, the mean
//     dynamic load share of non-branch instructions is within 0.06 of
//     LoadFrac (largest gap 0.046, parser) and the store share within
//     0.03 of StoreFrac (largest gap 0.012, vpr).
//
// The shares are tested as a mean over seeds because one program's hot
// loops can dominate its stream: twolf at seed 2 issues 59% loads and
// almost no stores against a 28%/10% profile.
func TestProfilesMatchTable1(t *testing.T) {
	const (
		seeds    = 8
		instrs   = 200_000
		bbTol    = 0.06
		loadTol  = 0.06
		storeTol = 0.03
	)
	for _, name := range bench.Names() {
		pf := bench.MustProfile(name)
		var loadShare, storeShare float64
		for seed := uint64(1); seed <= seeds; seed++ {
			p := prog.Build(pf, seed)
			if p.NumBlocks() != pf.StaticBlocks {
				t.Errorf("%s seed %d: %d blocks, want StaticBlocks %d", name, seed, p.NumBlocks(), pf.StaticBlocks)
			}
			if got := p.AvgStaticBBSize(); math.Abs(got/pf.AvgBBSize-1) > bbTol {
				t.Errorf("%s seed %d: AvgStaticBBSize %.3f, more than %.0f%% from AvgBBSize %.2f",
					name, seed, got, 100*bbTol, pf.AvgBBSize)
			}
			var loads, stores, nonBranch int
			for _, in := range trace(p, seed, instrs) {
				switch in.Class {
				case isa.Load:
					loads++
				case isa.Store:
					stores++
				case isa.Branch:
					continue
				}
				nonBranch++
			}
			loadShare += float64(loads) / float64(nonBranch) / seeds
			storeShare += float64(stores) / float64(nonBranch) / seeds
		}
		if math.Abs(loadShare-pf.LoadFrac) > loadTol {
			t.Errorf("%s: mean dynamic load share %.3f, more than %.2f from LoadFrac %.2f", name, loadShare, loadTol, pf.LoadFrac)
		}
		if math.Abs(storeShare-pf.StoreFrac) > storeTol {
			t.Errorf("%s: mean dynamic store share %.3f, more than %.2f from StoreFrac %.2f", name, storeShare, storeTol, pf.StoreFrac)
		}
	}
}
