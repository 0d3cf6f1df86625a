package prog

import (
	"fmt"
	"math"
	"sort"

	"smtfetch/internal/isa"
	"smtfetch/internal/rng"
)

// CodeBase is the address of the first basic block of every Program.
const CodeBase isa.Addr = 0x0040_0000

// Data-region bases. Hot and cold data live in disjoint regions so the
// cache behaviour of the two classes never aliases by construction.
const (
	hotDataBase  = 0x1000_0000
	coldDataBase = 0x4000_0000
	stackBase    = 0x7fff_0000
)

// branchClass distinguishes the synthetic behaviours of conditional
// branches.
type branchClass uint8

const (
	// brBiased branches are taken with a fixed per-branch probability.
	brBiased branchClass = iota
	// brLoop branches are loop back-edges: taken tripCount-1 times, then
	// not taken once.
	brLoop
	// brCorrelated branches compute their outcome from the thread's
	// recent branch history (predictable by history-based predictors,
	// subject to table aliasing).
	brCorrelated
)

// memKind distinguishes address generators.
type memKind uint8

const (
	memStride memKind = iota
	memRandom
)

// strideBytes is how far a strided generator advances per access.
const strideBytes = 8

// memGen is the static description of one memory instruction's address
// stream. Per-stream dynamic state (stride cursors, chase pointers) lives in
// the Stream.
type memGen struct {
	base  uint64
	size  uint64 // bytes; power-of-two not required
	kind  memKind
	chase bool // load address depends on the previous load (pointer chasing)
}

// staticInstr describes one static non-terminator instruction. Its index in
// Program.instrs is its static-instruction id, which keys per-stream state.
type staticInstr struct {
	class   isa.Class
	dep1    uint8
	dep2    uint8
	hasDest bool
	mem     int32 // index into Program.mems; loads and stores only
}

// terminator describes the control transfer ending a block. Its block's
// index is its static-branch id, which keys per-stream state.
type terminator struct {
	// pTaken, tripCount and histMask are the behaviours of biased, loop
	// and correlated conditional branches; a correlated branch flips its
	// outcome with the profile's Noise probability.
	pTaken    float64
	tripCount int32
	// target is the static target block index (conditional taken-target,
	// jump/call target). An indirect jump has nInd targets instead, and
	// target indexes the first of them in Program.indTargets and
	// Program.indWeights. Unused for returns.
	target   int32
	histMask uint16
	nInd     uint8
	kind     isa.BranchKind
	// dep1 is the branch's own input-dependence distance (a compare
	// result it consumes); it determines how late the branch resolves.
	dep1  uint8
	class branchClass
}

// Block is one static basic block: its body instructions are
// Program.instrs[body : body+nbody], and the terminator is the block's
// last instruction. A block's fall-through successor is the next block in
// layout order (the last block's is the first).
type Block struct {
	addr  isa.Addr
	term  terminator
	body  int32
	index int32 // position in Program.blocks, the terminator's static id
	nbody uint8
}

// Addr returns the block's start address.
func (b *Block) Addr() isa.Addr { return b.addr }

// Len returns the block size in instructions, including the terminator.
//
//smtfetch:hotpath
func (b *Block) Len() int { return int(b.nbody) + 1 }

// TermPC returns the address of the block's terminating branch.
//
//smtfetch:hotpath
func (b *Block) TermPC() isa.Addr {
	return b.addr + isa.Addr(int(b.nbody)*isa.InstrSize)
}

// maxBody caps a block's body, so a block spans at most 64 instructions.
const maxBody = 63

// MaxStaticBlocks is the largest block count Profile.Validate keeps. It
// bounds every arena index: a program has at most 64 instructions and 8
// indirect targets per block.
const MaxStaticBlocks = 1 << 24

// Compile-time checks that the arena fields hold their largest values.
const _ int32 = MaxStaticBlocks*(maxBody+1) - 1

var (
	_ = Block{nbody: maxBody}
	_ = staticInstr{dep1: MaxDepDist, dep2: MaxDepDist}
	_ = terminator{dep1: MaxDepDist, nInd: maxIndirectTargets, histMask: 1 << maxHistBit}
)

// Program is a complete synthetic program: the static CFG plus everything a
// Stream needs to walk it. It is read-only after Build returns, because
// concurrently running simulators share one Program; all walk state lives
// in the Stream.
//
// The program lives in a few flat arenas whose entries hold no pointers:
// blocks, instructions, memory generators and indirect-jump targets refer
// to each other by int32 index, so a Program is a handful of allocations
// the collector need not scan. Build fills each arena in block order, so a
// body instruction's static id is its index in instrs and a branch's
// static id is its block's index in blocks.
type Program struct {
	profile Profile
	blocks  []Block
	// starts[i] = blocks[i].addr, for address->block binary search.
	starts []isa.Addr
	instrs []staticInstr
	mems   []memGen
	// indTargets and indWeights hold the target sets of every indirect
	// jump: block indices and their Pick weights.
	indTargets []int32
	indWeights []float64
	// entries lists function-entry blocks (call targets) in layout order;
	// the first hotEntries of them form the hot set.
	entries    []int32
	hotEntries int
	// codeEnd is the first address past the last block.
	codeEnd isa.Addr
}

// Profile returns the profile the program was built from.
func (p *Program) Profile() Profile { return p.profile }

// NumBlocks returns the static basic-block count.
func (p *Program) NumBlocks() int { return len(p.blocks) }

// CodeBytes returns the program's instruction footprint in bytes.
func (p *Program) CodeBytes() int { return int(p.codeEnd - CodeBase) }

// Entry returns the program's entry address.
func (p *Program) Entry() isa.Addr { return p.blocks[0].addr }

// AvgStaticBBSize returns the mean static basic-block size in instructions.
func (p *Program) AvgStaticBBSize() float64 {
	return float64(len(p.instrs)+len(p.blocks)) / float64(len(p.blocks))
}

// BlockAt returns the block containing addr and the instruction offset of
// addr within it. Addresses outside the program are wrapped into it (stale
// predictor targets must still land somewhere executable, exactly as a real
// wrong path lands in real code).
//
//smtfetch:hotpath
func (p *Program) BlockAt(addr isa.Addr) (*Block, int) {
	if addr < CodeBase || addr >= p.codeEnd {
		span := uint64(p.codeEnd - CodeBase)
		addr = CodeBase + isa.Addr(uint64(addr)%span)
	}
	addr &^= isa.InstrSize - 1
	// Find the last block whose start <= addr.
	//smtfetch:allowalloc non-escaping closure: sort.Search does not retain it (escape gate verifies)
	i := sort.Search(len(p.starts), func(i int) bool { return p.starts[i] > addr }) - 1
	if i < 0 {
		i = 0
	}
	b := &p.blocks[i]
	off := int((addr - b.addr) / isa.InstrSize)
	if off >= b.Len() {
		off = b.Len() - 1
	}
	return b, off
}

// Build constructs a deterministic synthetic program for the given profile
// and seed.
func Build(profile Profile, seed uint64) *Program {
	pf := profile.Validate()
	r := rng.New(seed ^ 0xC0DE_BA5E)
	n := pf.StaticBlocks
	p := &Program{
		profile: pf,
		blocks:  make([]Block, n),
		starts:  make([]isa.Addr, n),
	}

	// Pass 1: sizes and addresses. Bodies are laid out in block order.
	addr := CodeBase
	numInstrs := 0
	for i := range p.blocks {
		b := &p.blocks[i]
		b.addr = addr
		b.index = int32(i)
		b.body = int32(numInstrs)
		b.nbody = uint8(bodySize(r, pf.AvgBBSize))
		numInstrs += int(b.nbody)
		p.starts[i] = addr
		addr += isa.Addr(b.Len() * isa.InstrSize)
	}
	p.codeEnd = addr

	// Partition blocks into functions with a mean of ~12 blocks. Every
	// function's last block is a return, and all intra-function control
	// flow stays inside the function: forward edges for ordinary
	// branches, bounded backward edges only for loop back-edges. This
	// guarantees the dynamic walk always makes progress toward the
	// return, so calls and returns balance — the property that keeps the
	// synthetic walk from collapsing into a degenerate cycle. Every
	// function but the last has at least 4 blocks.
	p.entries = make([]int32, 0, n/4+1)
	for i := 0; i < n; {
		size := 4 + r.Intn(17) // 4..20 blocks, mean 12
		if i+size > n {
			size = n - i
		}
		p.entries = append(p.entries, int32(i))
		i += size
	}

	// Hot functions: calls prefer them, concentrating the dynamic
	// footprint the way optimized layouts do.
	hotFuncs := int(pf.HotFraction * float64(len(p.entries)))
	if hotFuncs < 1 {
		hotFuncs = 1
	}
	p.hotEntries = hotFuncs

	// Pass 2: bodies and terminators, function by function.
	p.instrs = make([]staticInstr, numInstrs)
	p.mems = make([]memGen, 0, arenaCap(float64(numInstrs)*min(1, pf.LoadFrac+pf.StoreFrac)))
	indirect := arenaCap(float64(n) * pf.IndirectFrac * (minIndirectTargets + maxIndirectTargets) / 2)
	p.indTargets = make([]int32, 0, indirect)
	p.indWeights = make([]float64, 0, indirect)
	for f, lo := range p.entries {
		hi := n - 1
		if f+1 < len(p.entries) {
			hi = int(p.entries[f+1]) - 1
		}
		for i := int(lo); i <= hi; i++ {
			b := &p.blocks[i]
			body := p.instrs[b.body : int(b.body)+int(b.nbody)]
			for j := range body {
				body[j] = p.buildInstr(r, pf)
			}
			if i == hi {
				// Function end. The empty-call-stack fallback target is
				// chosen dynamically by the Stream (a fixed one would
				// collapse the walk into a short deterministic cycle).
				b.term = terminator{kind: isa.Return}
			} else {
				b.term = p.buildTerminator(r, pf, i, int(lo), hi, hotFuncs)
			}
			b.term.dep1 = depDist(r, 3)
		}
	}
	return p
}

// arenaCap returns the capacity to give an arena that receives about mean
// entries: the headroom is many standard deviations of the count, so
// append practically never grows the arena and Build's allocation count
// does not depend on the program's size.
func arenaCap(mean float64) int {
	if !(mean > 0) { // a NaN fraction, which Validate lets through
		mean = 0
	}
	return int(mean+16*math.Sqrt(mean)) + 64
}

// bodySize draws the non-terminator instruction count of a block so that
// the block size (body+1) has the profile's mean.
func bodySize(r *rng.Rand, mean float64) int {
	// Block size = 1 (terminator) + body. A geometric body with mean
	// mean-1 gives blocks with the right mean and a realistic long tail.
	body := r.Geometric(mean - 1)
	if body > maxBody {
		body = maxBody
	}
	return body
}

func (p *Program) buildInstr(r *rng.Rand, pf Profile) staticInstr {
	var in staticInstr
	in.hasDest = true
	x := r.Float64()
	switch {
	case x < pf.LoadFrac:
		in.class = isa.Load
		in.mem = p.buildMemGen(r, pf, true)
	case x < pf.LoadFrac+pf.StoreFrac:
		in.class = isa.Store
		in.hasDest = false
		in.mem = p.buildMemGen(r, pf, false)
	case x < pf.LoadFrac+pf.StoreFrac+pf.MulFrac:
		in.class = isa.IntMul
	case x < pf.LoadFrac+pf.StoreFrac+pf.MulFrac+pf.FPFrac:
		in.class = isa.FPOp
	default:
		in.class = isa.IntALU
	}
	in.dep1 = depDist(r, pf.MeanDepDist)
	if r.Bool(0.45) {
		in.dep2 = depDist(r, pf.MeanDepDist*1.5)
	}
	return in
}

// MaxDepDist is the largest dependence distance a program carries.
const MaxDepDist = 48

// depDist draws a dependence distance; 0 (no dependence) appears for a
// small fraction of instructions (immediates, loads of globals).
func depDist(r *rng.Rand, mean float64) uint8 {
	if r.Bool(0.15) {
		return 0
	}
	d := r.Geometric(mean)
	if d > MaxDepDist {
		d = MaxDepDist
	}
	return uint8(d)
}

// buildMemGen appends a memory instruction's address generator to p.mems
// and returns its index.
func (p *Program) buildMemGen(r *rng.Rand, pf Profile, isLoad bool) int32 {
	var g memGen
	cold := r.Bool(pf.ColdFrac)
	var regionBase, regionSize uint64
	if cold {
		regionBase, regionSize = coldDataBase, uint64(pf.ColdBytes)
	} else {
		regionBase, regionSize = hotDataBase, uint64(pf.HotBytes)
	}
	if r.Bool(pf.StrideFrac) {
		g.kind = memStride
		// Each streaming instruction walks its own sub-range.
		span := regionSize / 4
		if span < 4096 {
			span = 4096
		}
		if span > regionSize {
			span = regionSize
		}
		g.size = span
		g.base = regionBase + (uint64(r.Intn(int(regionSize/64))) * 64 % (regionSize - span + 1))
	} else {
		g.kind = memRandom
		g.base = regionBase
		g.size = regionSize
		if isLoad && cold {
			g.chase = r.Bool(pf.ChaseFrac)
		}
	}
	p.mems = append(p.mems, g)
	return int32(len(p.mems) - 1)
}

// An indirect jump has minIndirectTargets to maxIndirectTargets targets.
const (
	minIndirectTargets = 2
	maxIndirectTargets = 8
)

// buildTerminator builds a non-return terminator for block i of the
// function spanning blocks [lo, hi].
func (p *Program) buildTerminator(r *rng.Rand, pf Profile, i, lo, hi, hotFuncs int) terminator {
	var t terminator
	x := r.Float64()
	switch {
	case x < pf.JumpFrac:
		t.kind = isa.Jump
		t.target = pickForward(r, i, hi)
	case x < pf.JumpFrac+pf.CallFrac:
		t.kind = isa.Call
		t.target = p.pickCallee(r, pf, hotFuncs)
	case x < pf.JumpFrac+pf.CallFrac+pf.IndirectFrac:
		t.kind = isa.IndirectJump
		// Indirect jumps are usually near-monomorphic in practice
		// (virtual calls with one dominant receiver): the first target
		// gets most of the weight.
		k := minIndirectTargets + r.Intn(maxIndirectTargets-minIndirectTargets+1)
		t.target, t.nInd = int32(len(p.indTargets)), uint8(k)
		for j := 0; j < k; j++ {
			p.indTargets = append(p.indTargets, pickForward(r, i, hi))
			w := 8.0
			if j > 0 {
				w = 0.1 + 0.5*r.Float64()
			}
			p.indWeights = append(p.indWeights, w)
		}
	default:
		t.kind = isa.CondBranch
		buildCondBehaviour(r, pf, &t, i, lo, hi)
	}
	return t
}

func buildCondBehaviour(r *rng.Rand, pf Profile, t *terminator, i, lo, hi int) {
	y := r.Float64()
	switch {
	case y < pf.LoopFrac && i > lo:
		t.class = brLoop
		t.tripCount = int32(2 + r.Geometric(float64(pf.MeanTripCount-1)))
		t.target = pickBackward(r, i, lo)
	case y < pf.LoopFrac+pf.CorrFrac:
		t.class = brCorrelated
		// Outcome = parity of 2..4 recent branch outcomes.
		bits := 2 + r.Intn(3)
		for b := 0; b < bits; b++ {
			t.histMask |= 1 << uint(1+r.Intn(maxHistBit))
		}
		t.target = pickForward(r, i, hi)
	default:
		t.class = brBiased
		// Branch direction populations are strongly bimodal: most
		// branches go one way nearly always; a small HardFrac are
		// genuinely data-dependent. BiasMean sets the taken share of
		// the strongly-biased population (layout-optimized code is
		// mostly not-taken).
		z := r.Float64()
		strongTaken := (1 - pf.RarelyTakenFrac - pf.HardFrac) * pf.BiasMean
		switch {
		case z < pf.RarelyTakenFrac:
			// Error checks: almost never taken.
			t.pTaken = 0.002 + 0.02*r.Float64()
		case z < pf.RarelyTakenFrac+pf.HardFrac:
			// Data-dependent: near 50/50, the misprediction floor.
			t.pTaken = 0.25 + 0.5*r.Float64()
		case z < pf.RarelyTakenFrac+pf.HardFrac+strongTaken:
			t.pTaken = 0.95 + 0.045*r.Float64()
		default:
			t.pTaken = 0.005 + 0.045*r.Float64()
		}
		t.target = pickForward(r, i, hi)
	}
}

// maxHistBit is the oldest history bit a correlated branch reads.
const maxHistBit = 12

// pickForward chooses a target strictly after block i, within the function
// (at most the return block hi). Forward-only edges guarantee intra-function
// progress; hops are short (skip a block or two, like an if/else) so the
// walk traverses most of a function before returning.
func pickForward(r *rng.Rand, i, hi int) int32 {
	j := i + 1 + r.Geometric(1.4)
	if j > hi {
		j = hi
	}
	return int32(j)
}

// pickBackward chooses a loop head in [lo, i-1].
func pickBackward(r *rng.Rand, i, lo int) int32 {
	d := 1 + r.Geometric(2.5)
	j := i - d
	if j < lo {
		j = lo
	}
	return int32(j)
}

// pickCallee chooses a call target: a hot-function entry with HotWeight
// probability, any function otherwise.
func (p *Program) pickCallee(r *rng.Rand, pf Profile, hotFuncs int) int32 {
	if r.Bool(pf.HotWeight) {
		return p.entries[r.Intn(hotFuncs)]
	}
	return p.entries[r.Intn(len(p.entries))]
}

// String summarizes the program.
func (p *Program) String() string {
	return fmt.Sprintf("prog %s: %d blocks, %d instrs, %.1fKB code, avg BB %.2f",
		p.profile.Name, len(p.blocks), len(p.instrs)+len(p.blocks),
		float64(p.CodeBytes())/1024, p.AvgStaticBBSize())
}
