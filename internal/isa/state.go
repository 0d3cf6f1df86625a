package isa

// Warm-state snapshot codec for Instruction, shared by every package that
// serializes instruction payloads (ftq requests, prog stream lookahead,
// core uop tables). Cold-path code, outside the cycle loop.

import "smtfetch/internal/snap"

// Snap codes the instruction in either direction.
func (in *Instruction) Snap(c *snap.Codec) {
	snap.U64(c, &in.PC)
	c.U64(&in.PathSeq)
	snap.U8(c, &in.Class)
	c.U16(&in.Dep1)
	c.U16(&in.Dep2)
	c.Bool(&in.HasDest)
	snap.U64(c, &in.EffAddr)
	snap.U8(c, &in.BrKind)
	c.Bool(&in.Taken)
	snap.U64(c, &in.Target)
	snap.U64(c, &in.FallThrough)
}
