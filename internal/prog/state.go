package prog

// Warm-state snapshot codec for Stream: the Program (static CFG) is
// rebuilt from the profile and seed by the caller; only the dynamic walk
// state is serialized. Dynamic maps are serialized as sorted key/value
// pairs so the byte stream is independent of Go's map iteration order.
//
// Cold-path code, outside the cycle loop.

import (
	"smtfetch/internal/isa"
	"smtfetch/internal/snap"
)

// Snap codes the stream's dynamic walk state. A decoding receiver must
// have been built over the identical Program. The lookahead buffer is
// coded with the consumed prefix dropped (head normalized to zero), which
// is behaviourally identical and keeps the artifact compact.
func (s *Stream) Snap(c *snap.Codec) {
	st := s.r.State()
	for i := range st {
		c.U64(&st[i])
	}
	s.r.SetState(st)
	bi := int(s.blk.index)
	c.Int(&bi)
	if bi < 0 || bi >= len(s.prog.blocks) {
		c.Fail("prog: block index %d out of range (%d blocks)", bi, len(s.prog.blocks))
		return
	}
	s.blk = &s.prog.blocks[bi]
	c.Int(&s.off)
	snap.Map(c, s.loopCounts, (*snap.Codec).Int)
	snap.Map(c, s.strideOffs, (*snap.Codec).U64)
	snap.Slice(c, &s.callStack, snap.U64[isa.Addr])
	c.U64(&s.hist)
	c.Int(&s.sinceLoad)
	pending := s.buf[s.head:]
	snap.Slice(c, &pending, func(c *snap.Codec, in *isa.Instruction) { in.Snap(c) })
	if c.Decoding() {
		s.buf, s.head = pending, 0
	}
	c.U64(&s.Generated)
	c.U64(&s.Branches)
	c.U64(&s.TakenBranches)
}
