package prog

import (
	"smtfetch/internal/isa"
	"smtfetch/internal/rng"
)

// Stream walks a Program dynamically, producing one thread's instruction
// trace. The committed path of a thread is one Stream; wrong paths are
// separate Streams forked at the mispredicted target (the Program's static
// CFG plays the role of SMTSIM's basic-block dictionary).
//
// Streams expose a lookahead interface: Peek(k) returns the k-th upcoming
// instruction without consuming it, Advance(n) consumes n instructions.
// Redirect(pc) repositions the stream (used on wrong paths, where the
// front-end steers the walk along the predicted path).
type Stream struct {
	prog *Program //smtfetch:transient static program; decode re-resolves the block pointer through it
	r    *rng.Rand

	blk *Block
	off int

	// Dynamic per-static-object state.
	loopCounts map[int]int
	strideOffs map[int]uint64
	callStack  []isa.Addr
	// hist is the truth outcome history of conditional branches, consumed
	// by correlated branch behaviours.
	hist uint64
	// sinceLoad counts instructions since the last load, for
	// pointer-chase dependence distances.
	sinceLoad int

	// buf is the lookahead buffer; buf[head:] are pending instructions.
	buf  []isa.Instruction
	head int

	// Generated counts instructions produced since creation.
	Generated uint64
	// TakenBranches / Branches count dynamic control-flow statistics.
	Branches      uint64
	TakenBranches uint64
}

// maxCallStack bounds the modelled call depth; deeper calls drop the oldest
// frame, like a real RAS would wrap.
const maxCallStack = 256

// NewStream returns a Stream positioned at the program entry.
func (p *Program) NewStream(seed uint64) *Stream {
	return p.newStream(seed, p.Entry())
}

// NewStreamAt returns a Stream positioned at pc, used for wrong-path
// generation. Its dynamic state (loop counters, call stack, history) starts
// empty: a wrong path has no meaningful architectural state.
func (p *Program) NewStreamAt(seed uint64, pc isa.Addr) *Stream {
	return p.newStream(seed, pc)
}

func (p *Program) newStream(seed uint64, pc isa.Addr) *Stream {
	s := &Stream{
		prog:       p,
		r:          rng.New(seed ^ 0x5EED_57EA),
		loopCounts: make(map[int]int),
		strideOffs: make(map[int]uint64),
	}
	s.blk, s.off = p.BlockAt(pc)
	return s
}

// Peek returns the k-th upcoming instruction (k=0 is next). The returned
// pointer is valid until the next Advance/Redirect.
//
//smtfetch:hotpath
func (s *Stream) Peek(k int) *isa.Instruction {
	for len(s.buf)-s.head <= k {
		//smtfetch:allowalloc Advance drops the consumed prefix: capacity converges to the deepest Peek
		s.buf = append(s.buf, s.gen())
	}
	return &s.buf[s.head+k]
}

// PC returns the address of the next instruction.
//
//smtfetch:hotpath
func (s *Stream) PC() isa.Addr { return s.Peek(0).PC }

// Advance consumes n instructions.
//
//smtfetch:hotpath
func (s *Stream) Advance(n int) {
	// Instructions past the buffered ones are walked over unbuffered.
	for pending := len(s.buf) - s.head; n > pending; n-- {
		s.gen()
	}
	s.head += n
	// Drop the consumed prefix once it is at least as long as what is
	// still pending: with nothing pending, as after the fetch unit's
	// Peek(0), Advance(1), the buffer empties, and it never holds more
	// than twice the deepest Peek.
	if rest := len(s.buf) - s.head; rest <= s.head {
		s.buf = s.buf[:copy(s.buf, s.buf[s.head:])]
		s.head = 0
	}
}

// Redirect repositions the stream at pc, discarding buffered lookahead.
// Wrong-path streams are redirected to follow the predicted path after
// every predicted branch.
//
//smtfetch:hotpath
func (s *Stream) Redirect(pc isa.Addr) {
	s.buf = s.buf[:0]
	s.head = 0
	s.blk, s.off = s.prog.BlockAt(pc)
}

// gen materializes the next instruction at the walk position and advances
// the position.
//
//smtfetch:hotpath
func (s *Stream) gen() isa.Instruction {
	p := s.prog
	b := s.blk
	s.Generated++
	s.sinceLoad++
	if s.off < int(b.nbody) {
		id := int(b.body) + s.off
		si := &p.instrs[id]
		in := isa.Instruction{
			PC:      b.addr + isa.Addr(s.off*isa.InstrSize),
			PathSeq: s.Generated,
			Class:   si.class,
			Dep1:    uint16(si.dep1),
			Dep2:    uint16(si.dep2),
			HasDest: si.hasDest,
		}
		if si.class == isa.Load || si.class == isa.Store {
			g := &p.mems[si.mem]
			in.EffAddr = s.memAddr(id, g)
			if g.chase && s.sinceLoad < MaxDepDist {
				// Pointer chase: address depends on the previous load.
				in.Dep1 = uint16(s.sinceLoad)
			}
		}
		if si.class == isa.Load {
			s.sinceLoad = 0
		}
		s.off++
		return in
	}

	// Terminator.
	t := &b.term
	pc := b.TermPC()
	in := isa.Instruction{
		PC:          pc,
		PathSeq:     s.Generated,
		Class:       isa.Branch,
		BrKind:      t.kind,
		Dep1:        uint16(t.dep1),
		FallThrough: pc + isa.InstrSize,
	}
	s.Branches++
	var next *Block
	switch t.kind {
	case isa.CondBranch:
		in.Taken = s.condOutcome(int(b.index), t)
		s.hist = s.hist<<1 | boolBit(in.Taken)
		if in.Taken {
			next = &p.blocks[t.target]
			in.Target = next.addr
		} else if i := int(b.index) + 1; i < len(p.blocks) {
			next = &p.blocks[i]
		} else {
			next = &p.blocks[0]
		}
	case isa.Jump:
		in.Taken = true
		next = &p.blocks[t.target]
		in.Target = next.addr
	case isa.Call:
		in.Taken = true
		in.HasDest = true // writes the return-address register
		next = &p.blocks[t.target]
		in.Target = next.addr
		ra := in.FallThrough
		if len(s.callStack) >= maxCallStack {
			copy(s.callStack, s.callStack[1:])
			s.callStack = s.callStack[:len(s.callStack)-1]
		}
		//smtfetch:allowalloc callStack is capped at maxCallStack by the shift above; capacity converges to the cap
		s.callStack = append(s.callStack, ra)
	case isa.Return:
		in.Taken = true
		var ra isa.Addr
		if n := len(s.callStack); n > 0 {
			ra = s.callStack[n-1]
			s.callStack = s.callStack[:n-1]
		} else {
			// Empty call stack: the walk restarts in a random hot
			// function (the synthetic equivalent of the benchmark's
			// main loop dispatching new work).
			e := p.entries[s.r.Intn(p.hotEntries)]
			ra = p.blocks[e].addr
		}
		in.Target = ra
		// Reposition precisely (the return address may be mid-block
		// only when the fallback target was used; BlockAt handles it).
		s.blk, _ = p.BlockAt(ra)
		s.off = int((ra - s.blk.addr) / isa.InstrSize)
		if s.off >= s.blk.Len() {
			s.off = 0
		}
		s.TakenBranches++
		return in
	case isa.IndirectJump:
		in.Taken = true
		i := int(t.target) + s.r.Pick(p.indWeights[t.target:int(t.target)+int(t.nInd)])
		next = &p.blocks[p.indTargets[i]]
		in.Target = next.addr
	}
	if in.Taken {
		s.TakenBranches++
	}
	s.blk = next
	s.off = 0
	return in
}

//smtfetch:hotpath
func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// condOutcome evaluates the synthetic behaviour of conditional branch id.
//
//smtfetch:hotpath
func (s *Stream) condOutcome(id int, t *terminator) bool {
	switch t.class {
	case brLoop:
		c := s.loopCounts[id]
		taken := c < int(t.tripCount)-1
		if taken {
			//smtfetch:allowalloc loopCounts is keyed by static branch id: bounded by the program's static footprint
			s.loopCounts[id] = c + 1
		} else {
			//smtfetch:allowalloc loopCounts is keyed by static branch id: bounded by the program's static footprint
			s.loopCounts[id] = 0
		}
		return taken
	case brCorrelated:
		out := popcount(s.hist&uint64(t.histMask))&1 == 1
		if s.r.Bool(s.prog.profile.Noise) {
			out = !out
		}
		return out
	default: // brBiased
		return s.r.Bool(t.pTaken)
	}
}

//smtfetch:hotpath
func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// memAddr computes the next effective address of static memory
// instruction id, whose generator is g.
//
//smtfetch:hotpath
func (s *Stream) memAddr(id int, g *memGen) isa.Addr {
	switch g.kind {
	case memStride:
		off := s.strideOffs[id]
		//smtfetch:allowalloc strideOffs is keyed by static instruction id: bounded by the program's static footprint
		s.strideOffs[id] = off + strideBytes
		return isa.Addr(g.base + off%g.size)
	default: // memRandom
		return isa.Addr(g.base + uint64(s.r.Int63n(int64(g.size)))&^7)
	}
}
