package cache

// Warm-state snapshot codecs plus the no-side-effect warm methods used by
// functional fast-forward. Geometry is rebuilt from the configuration by
// the caller; decoding restores only dynamic contents and validates sizes
// against the receiver.
//
// MSHR maps are serialized as (line, ready) pairs sorted by line address
// so the byte stream is independent of Go's map iteration order; the heap
// is rebuilt from the pairs on restore (heap insertion order does not
// matter for behaviour — expire compares records against the map).
//
// All of this is cold-path code, outside the cycle loop.

import (
	"smtfetch/internal/isa"
	"smtfetch/internal/snap"
)

// Snap codes the cache's tag/valid/LRU arrays and counters.
func (c *Cache) Snap(sc *snap.Codec) {
	if sc.Table(len(c.tags), "cache:") {
		for i := range c.tags {
			sc.U64(&c.tags[i])
			sc.Bool(&c.valid[i])
			sc.U64(&c.lru[i])
		}
	}
	sc.U64(&c.stamp)
	sc.U64(&c.Accesses)
	sc.U64(&c.Misses)
}

// Snap codes the TLB contents. The page index map is not serialized;
// decoding rebuilds it from pages/valid.
func (t *TLB) Snap(c *snap.Codec) {
	if c.Table(t.entries, "cache: TLB") {
		for i := 0; i < t.entries; i++ {
			c.U64(&t.pages[i])
			c.Bool(&t.valid[i])
			c.U64(&t.lru[i])
		}
	}
	c.U64(&t.stamp)
	c.Int(&t.mru)
	c.U64(&t.Accesses)
	c.U64(&t.Misses)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	clear(t.idx)
	for i := 0; i < t.entries; i++ {
		if t.valid[i] {
			t.idx[t.pages[i]] = i
		}
	}
}

// snap codes the outstanding-miss set as sorted (line, ready) pairs;
// decoding rebuilds the heap from them.
func (s *mshrSet) snap(c *snap.Codec) {
	snap.Map(c, s.ready, (*snap.Codec).U64)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	s.heap = s.heap[:0]
	for _, line := range snap.SortedKeys(s.ready) {
		s.add(line, s.ready[line])
	}
}

// Snap codes the whole hierarchy's dynamic state.
func (h *Hierarchy) Snap(c *snap.Codec) {
	h.L1I.Snap(c)
	h.L1D.Snap(c)
	h.L2.Snap(c)
	h.ITLB.Snap(c)
	h.DTLB.Snap(c)
	h.imshrs.snap(c)
	h.dmshrs.snap(c)
}

// warmTouch models the residency effect of an access without any timing,
// MSHR, or statistics side effects: TLB fill, L1 lookup-or-fill through L2.
// Used by functional fast-forward, where the clock is frozen.
func warmTouch(l1, l2 *Cache, tlb *TLB, a isa.Addr) {
	tlb.access(a)
	if l1.touch(a) {
		return
	}
	if !l2.touch(a) {
		l2.Fill(a)
	}
	l1.Fill(a)
}

// WarmInstr models the residency effect of an instruction fetch without
// timing, MSHRs, or statistics: functional fast-forward keeps the caches
// and TLBs warm while the clock is frozen.
func (h *Hierarchy) WarmInstr(a isa.Addr) { warmTouch(h.L1I, h.L2, h.ITLB, a) }

// WarmData is WarmInstr for the data port.
func (h *Hierarchy) WarmData(a isa.Addr) { warmTouch(h.L1D, h.L2, h.DTLB, a) }
