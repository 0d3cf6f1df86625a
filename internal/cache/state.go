package cache

// Warm-state snapshot encoders/decoders plus the no-side-effect warm
// methods used by functional fast-forward. Geometry is rebuilt from the
// configuration by the caller; decoders restore only dynamic contents and
// validate sizes against the receiver.
//
// MSHR maps are serialized as (line, ready) pairs sorted by line address
// so the byte stream is independent of Go's map iteration order; the heap
// is rebuilt from the pairs on restore (heap insertion order does not
// matter for behaviour — expire compares records against the map).
//
// All of this is cold-path code, outside the cycle loop.

import (
	"sort"

	"smtfetch/internal/isa"
	"smtfetch/internal/snap"
)

// EncodeState serializes the cache's tag/valid/LRU arrays and counters.
func (c *Cache) EncodeState(w *snap.Writer) {
	w.U64(uint64(len(c.tags)))
	for i := range c.tags {
		w.U64(c.tags[i])
		w.Bool(c.valid[i])
		w.U64(c.lru[i])
	}
	w.U64(c.stamp)
	w.U64(c.Accesses)
	w.U64(c.Misses)
}

// DecodeState restores the cache's tag/valid/LRU arrays and counters.
func (c *Cache) DecodeState(r *snap.Reader) {
	n := r.Len()
	if r.Err() != nil {
		return
	}
	if n != len(c.tags) {
		r.Fail("cache: size %d, snapshot has %d", len(c.tags), n)
		return
	}
	for i := range c.tags {
		c.tags[i] = r.U64()
		c.valid[i] = r.Bool()
		c.lru[i] = r.U64()
	}
	c.stamp = r.U64()
	c.Accesses = r.U64()
	c.Misses = r.U64()
}

// EncodeState serializes the TLB contents (the page index map is not
// serialized; it is rebuilt from pages/valid on decode).
func (t *TLB) EncodeState(w *snap.Writer) {
	w.U64(uint64(t.entries))
	for i := 0; i < t.entries; i++ {
		w.U64(t.pages[i])
		w.Bool(t.valid[i])
		w.U64(t.lru[i])
	}
	w.U64(t.stamp)
	w.Int(t.mru)
	w.U64(t.Accesses)
	w.U64(t.Misses)
}

// DecodeState restores the TLB contents and rebuilds the page index.
func (t *TLB) DecodeState(r *snap.Reader) {
	n := r.Len()
	if r.Err() != nil {
		return
	}
	if n != t.entries {
		r.Fail("cache: TLB size %d, snapshot has %d", t.entries, n)
		return
	}
	for i := 0; i < t.entries; i++ {
		t.pages[i] = r.U64()
		t.valid[i] = r.Bool()
		t.lru[i] = r.U64()
	}
	t.stamp = r.U64()
	t.mru = r.Int()
	t.Accesses = r.U64()
	t.Misses = r.U64()
	if r.Err() != nil {
		return
	}
	clear(t.idx)
	for i := 0; i < t.entries; i++ {
		if t.valid[i] {
			t.idx[t.pages[i]] = i
		}
	}
}

// encodeState serializes the outstanding-miss set as sorted (line, ready)
// pairs.
func (s *mshrSet) encodeState(w *snap.Writer) {
	lines := make([]isa.Addr, 0, len(s.ready))
	//smtfetch:commutative keys are collected and sorted before encoding
	for line := range s.ready {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	w.U64(uint64(len(lines)))
	for _, line := range lines {
		w.U64(uint64(line))
		w.U64(s.ready[line])
	}
}

// decodeState restores the outstanding-miss set and rebuilds the heap.
func (s *mshrSet) decodeState(r *snap.Reader) {
	n := r.Len()
	if r.Err() != nil {
		return
	}
	clear(s.ready)
	s.heap = s.heap[:0]
	for i := 0; i < n; i++ {
		line := isa.Addr(r.U64())
		ready := r.U64()
		if r.Err() != nil {
			return
		}
		s.add(line, ready)
	}
}

// EncodeState serializes the whole hierarchy's dynamic state.
func (h *Hierarchy) EncodeState(w *snap.Writer) {
	h.L1I.EncodeState(w)
	h.L1D.EncodeState(w)
	h.L2.EncodeState(w)
	h.ITLB.EncodeState(w)
	h.DTLB.EncodeState(w)
	h.imshrs.encodeState(w)
	h.dmshrs.encodeState(w)
}

// DecodeState restores the whole hierarchy's dynamic state.
func (h *Hierarchy) DecodeState(r *snap.Reader) {
	h.L1I.DecodeState(r)
	h.L1D.DecodeState(r)
	h.L2.DecodeState(r)
	h.ITLB.DecodeState(r)
	h.DTLB.DecodeState(r)
	h.imshrs.decodeState(r)
	h.dmshrs.decodeState(r)
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
