package stats

// Warm-state snapshot encoders. Every counter is serialized so that a
// restored simulator's statistics continue bit-exactly from the warm-up
// totals; callers that want a clean measurement window reset after
// restore instead.
//
// Cold-path code, outside the cycle loop.

import "smtfetch/internal/snap"

// EncodeState serializes all counters.
func (s *Stats) EncodeState(w *snap.Writer) {
	w.U64(s.Cycles)
	w.U64(s.FetchCycles)
	w.U64(s.Fetched)
	w.U64s(s.FetchHist)
	w.U64(s.Committed)
	w.U64(s.Squashed)
	w.U64(s.Flushes)
	w.U64(s.FlushedUOps)
	w.U64(s.Replayed)
	w.Int(len(s.PerThread))
	for i := range s.PerThread {
		ts := &s.PerThread[i]
		w.U64(ts.Fetched)
		w.U64(ts.Committed)
		w.U64(ts.Squashed)
		w.U64(ts.CondBranches)
		w.U64(ts.CondMispredicts)
		w.U64(ts.ICacheMissStall)
		w.U64(ts.Replayed)
	}
	w.U64(s.CondBranches)
	w.U64(s.CondMispredicts)
	w.U64(s.TargetMisfetches)
	w.U64(s.StreamPredictions)
	w.U64(s.StreamMisses)
	w.U64(s.RASPops)
	w.U64(s.RASMispredicts)
	w.U64(s.FetchBlockLenSum)
	w.U64(s.FetchBlocks)
	w.U64(s.ICacheAccesses)
	w.U64(s.ICacheMisses)
	w.U64(s.DCacheAccesses)
	w.U64(s.DCacheMisses)
	w.U64(s.L2Accesses)
	w.U64(s.L2Misses)
	w.U64(s.ITLBMisses)
	w.U64(s.DTLBMisses)
	w.U64(s.StallROBFull)
	w.U64(s.StallIQFull)
	w.U64(s.StallRegsFull)
	w.U64(s.FetchBufStalls)
}

// DecodeState restores counters written with EncodeState. The receiver
// must be sized for the same thread count and fetch width.
func (s *Stats) DecodeState(r *snap.Reader) {
	s.Cycles = r.U64()
	s.FetchCycles = r.U64()
	s.Fetched = r.U64()
	hist := r.U64s()
	if r.Err() != nil {
		return
	}
	if len(hist) != len(s.FetchHist) {
		r.Fail("stats: snapshot fetch histogram has %d buckets, receiver has %d", len(hist), len(s.FetchHist))
		return
	}
	copy(s.FetchHist, hist)
	s.Committed = r.U64()
	s.Squashed = r.U64()
	s.Flushes = r.U64()
	s.FlushedUOps = r.U64()
	s.Replayed = r.U64()
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n != len(s.PerThread) {
		r.Fail("stats: snapshot has %d threads, receiver has %d", n, len(s.PerThread))
		return
	}
	for i := range s.PerThread {
		ts := &s.PerThread[i]
		ts.Fetched = r.U64()
		ts.Committed = r.U64()
		ts.Squashed = r.U64()
		ts.CondBranches = r.U64()
		ts.CondMispredicts = r.U64()
		ts.ICacheMissStall = r.U64()
		ts.Replayed = r.U64()
	}
	s.CondBranches = r.U64()
	s.CondMispredicts = r.U64()
	s.TargetMisfetches = r.U64()
	s.StreamPredictions = r.U64()
	s.StreamMisses = r.U64()
	s.RASPops = r.U64()
	s.RASMispredicts = r.U64()
	s.FetchBlockLenSum = r.U64()
	s.FetchBlocks = r.U64()
	s.ICacheAccesses = r.U64()
	s.ICacheMisses = r.U64()
	s.DCacheAccesses = r.U64()
	s.DCacheMisses = r.U64()
	s.L2Accesses = r.U64()
	s.L2Misses = r.U64()
	s.ITLBMisses = r.U64()
	s.DTLBMisses = r.U64()
	s.StallROBFull = r.U64()
	s.StallIQFull = r.U64()
	s.StallRegsFull = r.U64()
	s.FetchBufStalls = r.U64()
}
