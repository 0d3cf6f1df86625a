package stats

// Warm-state snapshot codec. Every counter is serialized so that a
// restored simulator's statistics continue bit-exactly from the warm-up
// totals; callers that want a clean measurement window reset after
// restore instead.
//
// Cold-path code, outside the cycle loop.

import "smtfetch/internal/snap"

// Snap codes all counters. A decoding receiver must be sized for the same
// thread count and fetch width.
func (s *Stats) Snap(c *snap.Codec) {
	c.U64(&s.Cycles)
	c.U64(&s.FetchCycles)
	c.U64(&s.Fetched)
	if c.Table(len(s.FetchHist), "stats: fetch histogram") {
		for i := range s.FetchHist {
			c.U64(&s.FetchHist[i])
		}
	}
	c.U64(&s.Committed)
	c.U64(&s.Squashed)
	c.U64(&s.Flushes)
	c.U64(&s.FlushedUOps)
	c.U64(&s.Replayed)
	if c.Table(len(s.PerThread), "stats: per-thread counters") {
		for i := range s.PerThread {
			ts := &s.PerThread[i]
			c.U64(&ts.Fetched)
			c.U64(&ts.Committed)
			c.U64(&ts.Squashed)
			c.U64(&ts.CondBranches)
			c.U64(&ts.CondMispredicts)
			c.U64(&ts.ICacheMissStall)
			c.U64(&ts.Replayed)
		}
	}
	c.U64(&s.CondBranches)
	c.U64(&s.CondMispredicts)
	c.U64(&s.TargetMisfetches)
	c.U64(&s.StreamPredictions)
	c.U64(&s.StreamMisses)
	c.U64(&s.RASPops)
	c.U64(&s.RASMispredicts)
	c.U64(&s.FetchBlockLenSum)
	c.U64(&s.FetchBlocks)
	c.U64(&s.ICacheAccesses)
	c.U64(&s.ICacheMisses)
	c.U64(&s.DCacheAccesses)
	c.U64(&s.DCacheMisses)
	c.U64(&s.L2Accesses)
	c.U64(&s.L2Misses)
	c.U64(&s.ITLBMisses)
	c.U64(&s.DTLBMisses)
	c.U64(&s.StallROBFull)
	c.U64(&s.StallIQFull)
	c.U64(&s.StallRegsFull)
	c.U64(&s.FetchBufStalls)
}
