// Package prog implements the synthetic program model that substitutes for
// the paper's Alpha SPECint2000 traces. A Program is a static control-flow
// graph of basic blocks (the equivalent of SMTSIM's "basic block
// dictionary", which is what allows wrong-path execution); a Stream walks a
// Program dynamically, producing the committed-path instruction trace of one
// thread, and can be forked at an arbitrary address to produce wrong-path
// instructions.
//
// Each benchmark is described by a Profile whose parameters are calibrated
// against Table 1 of the paper (average basic-block sizes) and the
// qualitative ILP/MEM classification of Table 2.
package prog

// Profile parameterizes the synthetic model of one benchmark.
type Profile struct {
	// Name is the SPEC benchmark name (e.g. "gzip").
	Name string

	// AvgBBSize is the mean basic-block size in instructions (Table 1).
	// Block sizes are drawn from a shifted geometric distribution with
	// this mean.
	AvgBBSize float64

	// StaticBlocks is the number of basic blocks in the synthetic CFG; it
	// controls the instruction footprint (I-cache and predictor-table
	// pressure). gcc is large, gzip is small.
	StaticBlocks int

	// HotFraction is the fraction of blocks that form the hot region;
	// control transfers land in the hot region with HotWeight probability.
	// This produces the loopy, localized code layout of optimized (spike)
	// binaries.
	HotFraction float64
	// HotWeight is the probability a control transfer targets the hot
	// region.
	HotWeight float64
	// LocalityWindow is the mean forward/backward jump distance in blocks
	// for branch targets, giving spatial locality in the code.
	LocalityWindow int

	// Terminator mix (fractions of blocks ending in each kind; the
	// remainder are conditional branches). Returns are structural: every
	// function's last block returns, so the dynamic return rate follows
	// the call rate.
	JumpFrac, CallFrac, IndirectFrac float64

	// Conditional-branch behaviour mix (fractions of conditional
	// branches; remainder are biased branches).
	LoopFrac float64 // loop back-edges with a per-branch trip count
	CorrFrac float64 // history-correlated branches
	// RarelyTakenFrac is the fraction of biased branches that are almost
	// never taken (error checks); these are what the FTB spans and the
	// BTB does not.
	RarelyTakenFrac float64
	// HardFrac is the fraction of biased branches with a genuinely
	// data-dependent, near-50/50 direction; it sets the benchmark's
	// misprediction floor. Real branch populations are strongly bimodal,
	// so this is small (0.05-0.15).
	HardFrac float64
	// MeanTripCount is the mean loop trip count for loop branches.
	MeanTripCount int
	// BiasMean is the mean taken-probability of ordinary biased branches.
	BiasMean float64
	// Noise is the probability a correlated branch flips its outcome,
	// bounding achievable prediction accuracy.
	Noise float64

	// Instruction class mix for non-branch instructions (fractions;
	// remainder are single-cycle integer ALU ops).
	LoadFrac, StoreFrac, MulFrac, FPFrac float64

	// MeanDepDist is the mean register-dependence distance in dynamic
	// instructions. Larger means more ILP.
	MeanDepDist float64

	// Memory behaviour: the data working set is split into a hot region
	// (cache-resident) and a cold region; loads/stores pick the cold
	// region with ColdFrac probability. ChaseFrac of cold loads are
	// pointer-chasing (address-dependent on the previous load).
	HotBytes  int
	ColdBytes int
	ColdFrac  float64
	ChaseFrac float64
	// StrideFrac of memory references are streaming (sequential lines).
	StrideFrac float64

	// MemoryBound marks the benchmark as MEM-class (Table 2
	// classification); used only for reporting.
	MemoryBound bool
}

// Validate clamps and sanity-checks profile parameters, returning a usable
// copy. It keeps example code robust against hand-built profiles.
func (p Profile) Validate() Profile {
	clamp01 := func(v *float64) {
		if *v < 0 {
			*v = 0
		}
		if *v > 1 {
			*v = 1
		}
	}
	if p.AvgBBSize < 2 {
		p.AvgBBSize = 2
	}
	if p.StaticBlocks < 16 {
		p.StaticBlocks = 16
	}
	if p.StaticBlocks > MaxStaticBlocks {
		p.StaticBlocks = MaxStaticBlocks
	}
	if p.LocalityWindow < 1 {
		p.LocalityWindow = 1
	}
	if p.MeanTripCount < 2 {
		p.MeanTripCount = 2
	}
	if p.MeanDepDist < 1 {
		p.MeanDepDist = 1
	}
	if p.HotBytes < 4096 {
		p.HotBytes = 4096
	}
	if p.ColdBytes < 4096 {
		p.ColdBytes = 4096
	}
	if p.HotFraction <= 0 || p.HotFraction > 1 {
		p.HotFraction = 0.2
	}
	clamp01(&p.HotWeight)
	clamp01(&p.JumpFrac)
	clamp01(&p.CallFrac)
	clamp01(&p.IndirectFrac)
	clamp01(&p.LoopFrac)
	clamp01(&p.CorrFrac)
	clamp01(&p.RarelyTakenFrac)
	clamp01(&p.HardFrac)
	clamp01(&p.BiasMean)
	clamp01(&p.Noise)
	clamp01(&p.LoadFrac)
	clamp01(&p.StoreFrac)
	clamp01(&p.MulFrac)
	clamp01(&p.FPFrac)
	clamp01(&p.ColdFrac)
	clamp01(&p.ChaseFrac)
	clamp01(&p.StrideFrac)
	return p
}
