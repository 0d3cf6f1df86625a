package prog

import (
	"fmt"
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

// memGen is the static description of one memory instruction's address
// stream. Per-stream dynamic state (stride cursors, chase pointers) lives in
// the Stream.
type memGen struct {
	kind   memKind
	base   uint64
	size   uint64 // bytes; power-of-two not required
	stride uint64
	cold   bool
	chase  bool // load address depends on the previous load (pointer chasing)
}

// staticInstr describes one static non-terminator instruction.
type staticInstr struct {
	class   isa.Class
	dep1    uint16
	dep2    uint16
	hasDest bool
	mem     *memGen
	id      int // global static-instruction id (indexes per-stream state)
}

// terminator describes the control transfer ending a block.
type terminator struct {
	kind isa.BranchKind
	// dep1 is the branch's own input-dependence distance (a compare
	// result it consumes); it determines how late the branch resolves.
	dep1 uint16
	// class/behaviour for conditional branches.
	class     branchClass
	pTaken    float64
	tripCount int
	histMask  uint64
	noise     float64
	// target is the static target block index (conditional taken-target,
	// jump/call target). Unused for returns.
	target int
	// indirectTargets/indirectWeights describe indirect-jump target sets.
	indirectTargets []int
	indirectWeights []float64
	id              int // global static-branch id
}

// Block is one static basic block.
type Block struct {
	index int
	addr  isa.Addr
	// body holds the non-terminator instructions; the terminator is the
	// last instruction of the block.
	body []staticInstr
	term terminator
	next int // fall-through successor (layout order)
}

// Addr returns the block's start address.
func (b *Block) Addr() isa.Addr { return b.addr }

// Len returns the block size in instructions, including the terminator.
//
//smtfetch:hotpath
func (b *Block) Len() int { return len(b.body) + 1 }

// TermPC returns the address of the block's terminating branch.
//
//smtfetch:hotpath
func (b *Block) TermPC() isa.Addr {
	return b.addr + isa.Addr(len(b.body)*isa.InstrSize)
}

// Program is a complete synthetic program: the static CFG plus everything a
// Stream needs to walk it. It is read-only after Build returns, because
// concurrently running simulators share one Program; all walk state lives
// in the Stream.
type Program struct {
	profile Profile
	blocks  []*Block
	// starts[i] = blocks[i].addr, for address->block binary search.
	starts []isa.Addr
	// entries lists function-entry blocks (call targets); the first
	// hotEntries of them form the hot set.
	entries    []int
	hotEntries int
	// codeEnd is the first address past the last block.
	codeEnd isa.Addr

	numStaticInstr  int
	numStaticBranch int
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
	total := 0
	for _, b := range p.blocks {
		total += b.Len()
	}
	return float64(total) / float64(len(p.blocks))
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
	b := p.blocks[i]
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
	p := &Program{profile: pf}

	n := pf.StaticBlocks
	p.blocks = make([]*Block, n)
	p.starts = make([]isa.Addr, n)

	// Pass 1: sizes and addresses.
	addr := CodeBase
	for i := 0; i < n; i++ {
		bodyLen := bodySize(r, pf.AvgBBSize)
		b := &Block{
			index: i,
			addr:  addr,
			body:  make([]staticInstr, bodyLen),
			next:  (i + 1) % n,
		}
		p.blocks[i] = b
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
	// synthetic walk from collapsing into a degenerate cycle.
	var funcOf []int // block -> function index
	funcOf = make([]int, n)
	var bounds [][2]int // function -> [first, last] block
	for i := 0; i < n; {
		size := 4 + r.Intn(17) // 4..20 blocks, mean 12
		if i+size > n {
			size = n - i
		}
		for j := i; j < i+size; j++ {
			funcOf[j] = len(bounds)
		}
		p.entries = append(p.entries, i)
		bounds = append(bounds, [2]int{i, i + size - 1})
		i += size
	}

	// Hot functions: calls prefer them, concentrating the dynamic
	// footprint the way optimized layouts do.
	hotFuncs := int(pf.HotFraction * float64(len(bounds)))
	if hotFuncs < 1 {
		hotFuncs = 1
	}
	p.hotEntries = hotFuncs

	// Pass 2: bodies and terminators.
	for i := 0; i < n; i++ {
		b := p.blocks[i]
		for j := range b.body {
			b.body[j] = p.buildInstr(r, pf)
			b.body[j].id = p.numStaticInstr
			p.numStaticInstr++
		}
		fn := funcOf[i]
		lo, hi := bounds[fn][0], bounds[fn][1]
		if i == hi {
			// Function end. The empty-call-stack fallback target is
			// chosen dynamically by the Stream (a fixed one would
			// collapse the walk into a short deterministic cycle).
			b.term = terminator{kind: isa.Return}
		} else {
			b.term = p.buildTerminator(r, pf, i, lo, hi, hotFuncs)
		}
		b.term.dep1 = depDist(r, 3)
		b.term.id = p.numStaticBranch
		p.numStaticBranch++
	}
	return p
}

// bodySize draws the non-terminator instruction count of a block so that
// the block size (body+1) has the profile's mean.
func bodySize(r *rng.Rand, mean float64) int {
	// Block size = 1 (terminator) + body. A geometric body with mean
	// mean-1 gives blocks with the right mean and a realistic long tail.
	body := r.Geometric(mean - 1)
	const maxBody = 63
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
func depDist(r *rng.Rand, mean float64) uint16 {
	if r.Bool(0.15) {
		return 0
	}
	d := r.Geometric(mean)
	if d > MaxDepDist {
		d = MaxDepDist
	}
	return uint16(d)
}

func (p *Program) buildMemGen(r *rng.Rand, pf Profile, isLoad bool) *memGen {
	g := &memGen{}
	g.cold = r.Bool(pf.ColdFrac)
	var regionBase, regionSize uint64
	if g.cold {
		regionBase, regionSize = coldDataBase, uint64(pf.ColdBytes)
	} else {
		regionBase, regionSize = hotDataBase, uint64(pf.HotBytes)
	}
	if r.Bool(pf.StrideFrac) {
		g.kind = memStride
		g.stride = 8
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
		if isLoad && g.cold {
			g.chase = r.Bool(pf.ChaseFrac)
		}
	}
	return g
}

// buildTerminator builds a non-return terminator for block i of the
// function spanning blocks [lo, hi].
func (p *Program) buildTerminator(r *rng.Rand, pf Profile, i, lo, hi, hotFuncs int) terminator {
	var t terminator
	x := r.Float64()
	switch {
	case x < pf.JumpFrac:
		t.kind = isa.Jump
		t.target = p.pickForward(r, pf, i, hi)
	case x < pf.JumpFrac+pf.CallFrac:
		t.kind = isa.Call
		t.target = p.pickCallee(r, pf, hotFuncs)
	case x < pf.JumpFrac+pf.CallFrac+pf.IndirectFrac:
		t.kind = isa.IndirectJump
		// Indirect jumps are usually near-monomorphic in practice
		// (virtual calls with one dominant receiver): the first target
		// gets most of the weight.
		k := 2 + r.Intn(7)
		t.indirectTargets = make([]int, k)
		t.indirectWeights = make([]float64, k)
		for j := 0; j < k; j++ {
			t.indirectTargets[j] = p.pickForward(r, pf, i, hi)
			if j == 0 {
				t.indirectWeights[j] = 8
			} else {
				t.indirectWeights[j] = 0.1 + 0.5*r.Float64()
			}
		}
	default:
		t.kind = isa.CondBranch
		p.buildCondBehaviour(r, pf, &t, i, lo, hi)
	}
	return t
}

func (p *Program) buildCondBehaviour(r *rng.Rand, pf Profile, t *terminator, i, lo, hi int) {
	y := r.Float64()
	switch {
	case y < pf.LoopFrac && i > lo:
		t.class = brLoop
		t.tripCount = 2 + r.Geometric(float64(pf.MeanTripCount-1))
		t.target = p.pickBackward(r, pf, i, lo)
	case y < pf.LoopFrac+pf.CorrFrac:
		t.class = brCorrelated
		// Outcome = parity of 2..4 recent branch outcomes.
		bits := 2 + r.Intn(3)
		for b := 0; b < bits; b++ {
			t.histMask |= 1 << uint(1+r.Intn(12))
		}
		t.noise = pf.Noise
		t.target = p.pickForward(r, pf, i, hi)
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
		t.target = p.pickForward(r, pf, i, hi)
	}
}

// pickForward chooses a target strictly after block i, within the function
// (at most the return block hi). Forward-only edges guarantee intra-function
// progress; hops are short (skip a block or two, like an if/else) so the
// walk traverses most of a function before returning.
func (p *Program) pickForward(r *rng.Rand, pf Profile, i, hi int) int {
	j := i + 1 + r.Geometric(1.4)
	if j > hi {
		j = hi
	}
	return j
}

// pickBackward chooses a loop head in [lo, i-1].
func (p *Program) pickBackward(r *rng.Rand, pf Profile, i, lo int) int {
	d := 1 + r.Geometric(2.5)
	j := i - d
	if j < lo {
		j = lo
	}
	return j
}

// pickCallee chooses a call target: a hot-function entry with HotWeight
// probability, any function otherwise.
func (p *Program) pickCallee(r *rng.Rand, pf Profile, hotFuncs int) int {
	if r.Bool(pf.HotWeight) {
		return p.entries[r.Intn(hotFuncs)]
	}
	return p.entries[r.Intn(len(p.entries))]
}

// String summarizes the program.
func (p *Program) String() string {
	return fmt.Sprintf("prog %s: %d blocks, %d instrs, %.1fKB code, avg BB %.2f",
		p.profile.Name, len(p.blocks), p.numStaticInstr+p.numStaticBranch,
		float64(p.CodeBytes())/1024, p.AvgStaticBBSize())
}

// BranchClassAt returns a diagnostic label for the branch at pc ("loop",
// "corr", "biased", "jump", ...), used by tests and cmd/progstat.
func (p *Program) BranchClassAt(pc isa.Addr) string {
	b, off := p.BlockAt(pc)
	if off != len(b.body) {
		return "notbranch"
	}
	t := &b.term
	if t.kind != isa.CondBranch {
		return t.kind.String()
	}
	switch t.class {
	case brLoop:
		return "loop"
	case brCorrelated:
		return "corr"
	default:
		switch {
		case t.pTaken < 0.03:
			return "rare"
		case t.pTaken >= 0.25 && t.pTaken <= 0.75:
			return "hard"
		case t.pTaken > 0.75:
			return "strongT"
		default:
			return "weakNT"
		}
	}
}
