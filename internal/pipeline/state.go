package pipeline

import "smtfetch/internal/snap"

// Warm-state snapshot accessors. The uop containers (ROB, issue queues,
// rings) are serialized by the core as index lists over its uop table, so
// this file exposes the per-uop value codec plus the small amount of
// unexported scalar state that the core cannot reach: the register
// free-list counter. FUPool state is deliberately not checkpointed — its
// per-cycle issue budget self-resets on the first TryIssue of any later
// cycle, so a restored simulator observes identical behaviour with a
// zeroed pool.

// Snap codes the uop by value; decoding fills a freshly allocated uop.
// Info and Req are re-linked by table index by the core's snapshot
// section, and Squashed uops are canonicalized out of the stream
// entirely, so neither appears here.
func (u *UOp) Snap(c *snap.Codec) {
	u.Instruction.Snap(c)
	c.Int(&u.Thread)
	c.Bool(&u.Ghost)
	c.U64(&u.GSeq)
	c.U16(&u.SavedDep1)
	c.U16(&u.SavedDep2)
	c.U64(&u.FetchedAt)
	c.U64(&u.EnterFront)
	c.U64(&u.DecodeAt)
	c.Bool(&u.Dispatched)
	c.Bool(&u.Issued)
	c.Bool(&u.Done)
	c.U64(&u.ReadyAt)
	c.Bool(&u.InICount)
	c.Bool(&u.InBRCount)
	c.Bool(&u.DMiss)
	c.Bool(&u.LongMiss)
	c.Bool(&u.Flushed)
	c.Bool(&u.Recovered)
}

// SetFree overwrites the free-register counter (snapshot restore only).
// n is clamped to [0, total].
func (r *RegFile) SetFree(n int) {
	if n < 0 {
		n = 0
	}
	if n > r.total {
		n = r.total
	}
	r.free = n
}
