// Package cache implements the memory-hierarchy substrate: set-associative,
// multi-bank, LRU caches with miss status holding registers (MSHRs), a
// two-level hierarchy (split L1 I/D over a unified L2 over main memory), and
// fully-associative TLBs. Timing is returned to the caller as completion
// cycles; the pipeline model decides what overlaps with what.
package cache

import (
	"fmt"

	"smtfetch/internal/config"
	"smtfetch/internal/isa"
)

// Cache is a set-associative cache with true-LRU replacement.
// It tracks tags only (the simulator never stores data).
type Cache struct {
	cfg      config.CacheConfig //smtfetch:transient construction-time configuration
	sets     int                //smtfetch:transient geometry derived from cfg at construction
	lineBits uint               //smtfetch:transient geometry derived from cfg at construction
	setMask  uint64             //smtfetch:transient geometry derived from cfg at construction
	bankMask uint64             //smtfetch:transient geometry derived from cfg at construction
	// ways[set*assoc+way]
	tags  []uint64
	valid []bool
	// lru[set*assoc+way]: lower value = older. Monotonic per-set stamp.
	lru   []uint64
	stamp uint64

	Accesses uint64
	Misses   uint64
}

// New returns an empty cache with the given geometry.
func New(cfg config.CacheConfig) *Cache {
	sets := cfg.Sets()
	n := sets * cfg.Assoc
	c := &Cache{
		cfg:   cfg,
		sets:  sets,
		tags:  make([]uint64, n),
		valid: make([]bool, n),
		lru:   make([]uint64, n),
	}
	for lb := cfg.LineBytes; lb > 1; lb >>= 1 {
		c.lineBits++
	}
	c.setMask = uint64(sets - 1)
	if cfg.Banks > 0 {
		c.bankMask = uint64(cfg.Banks - 1)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() config.CacheConfig { return c.cfg }

// LineAddr returns the line-aligned address containing a.
//
//smtfetch:hotpath
func (c *Cache) LineAddr(a isa.Addr) isa.Addr {
	return isa.Addr(uint64(a) &^ (uint64(c.cfg.LineBytes) - 1))
}

// Bank returns the interleaved bank index for address a (line-granularity
// interleaving, as in Table 3's 8-bank caches).
//
//smtfetch:hotpath
func (c *Cache) Bank(a isa.Addr) int {
	return int((uint64(a) >> c.lineBits) & c.bankMask)
}

//smtfetch:hotpath
func (c *Cache) set(a isa.Addr) int {
	return int((uint64(a) >> c.lineBits) & c.setMask)
}

// Lookup probes the cache for the line containing a, updating LRU state and
// access counters. It reports whether the line was present.
//
//smtfetch:hotpath
func (c *Cache) Lookup(a isa.Addr) bool {
	c.Accesses++
	if c.touch(a) {
		return true
	}
	c.Misses++
	return false
}

// find returns the index of the way holding the line containing a, or -1.
//
//smtfetch:hotpath
func (c *Cache) find(a isa.Addr) int {
	set := c.set(a)
	tag := uint64(a) >> c.lineBits
	base := set * c.cfg.Assoc
	for w := base; w < base+c.cfg.Assoc; w++ {
		if c.valid[w] && c.tags[w] == tag {
			return w
		}
	}
	return -1
}

// touch refreshes the LRU stamp of the line containing a if it is present,
// and reports whether it was: Lookup without counters.
//
//smtfetch:hotpath
func (c *Cache) touch(a isa.Addr) bool {
	w := c.find(a)
	if w < 0 {
		return false
	}
	c.stamp++
	c.lru[w] = c.stamp
	return true
}

// Probe is Lookup without counter or LRU side effects (for tests and for
// checking residency without modelling an access).
func (c *Cache) Probe(a isa.Addr) bool { return c.find(a) >= 0 }

// Touch refreshes the LRU stamp of the line containing a if it is present,
// without access counters (used for merged accesses to in-flight lines,
// which are accounted as misses but keep the line hot).
//
//smtfetch:hotpath
func (c *Cache) Touch(a isa.Addr) { c.touch(a) }

// Fill installs the line containing a, evicting the LRU way if needed.
// It reports the evicted line address and whether an eviction occurred.
//
//smtfetch:hotpath
func (c *Cache) Fill(a isa.Addr) (evicted isa.Addr, wasEvicted bool) {
	set := c.set(a)
	tag := uint64(a) >> c.lineBits
	base := set * c.cfg.Assoc
	victim := base
	for w := 0; w < c.cfg.Assoc; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			// Already present (e.g. a racing fill); refresh LRU.
			c.stamp++
			c.lru[i] = c.stamp
			return 0, false
		}
		if !c.valid[i] {
			victim = i
			break
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	if c.valid[victim] {
		evicted = isa.Addr(c.tags[victim] << c.lineBits)
		wasEvicted = true
	}
	c.valid[victim] = true
	c.tags[victim] = tag
	c.stamp++
	c.lru[victim] = c.stamp
	return evicted, wasEvicted
}

// Invalidate removes the line containing a if present.
func (c *Cache) Invalidate(a isa.Addr) {
	set := c.set(a)
	tag := uint64(a) >> c.lineBits
	base := set * c.cfg.Assoc
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.valid[base+w] = false
			return
		}
	}
}

// MissRate returns misses/accesses, or 0 when idle.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// TLB is a fully-associative LRU translation buffer over fixed-size pages.
// Hits resolve through an MRU probe and a page->entry index instead of the
// associative scan a real TLB does in parallel; the scan survives only on
// the (rare) miss path for LRU victim selection, so the model's hit/miss
// sequence and replacement decisions are unchanged while the common case
// is O(1).
type TLB struct {
	entries  int
	pageBits uint //smtfetch:transient geometry, fixed at construction
	pages    []uint64
	valid    []bool
	lru      []uint64
	stamp    uint64
	// idx maps the page of every valid entry to its index; mru is the
	// last entry that hit (checked first — page locality makes
	// consecutive accesses hit the same page).
	idx map[uint64]int //smtfetch:transient lookup index rebuilt from pages/valid on decode
	mru int

	Accesses uint64
	Misses   uint64
}

// PageBytes is the simulated page size.
const PageBytes = 4096

// NewTLB returns an empty TLB with the given entry count.
func NewTLB(entries int) *TLB {
	t := &TLB{
		entries: entries,
		pages:   make([]uint64, entries),
		valid:   make([]bool, entries),
		lru:     make([]uint64, entries),
		idx:     make(map[uint64]int, entries),
	}
	for pb := PageBytes; pb > 1; pb >>= 1 {
		t.pageBits++
	}
	return t
}

// Lookup probes for the page of a, filling on miss (hardware-walked TLB),
// and reports whether it hit.
//
//smtfetch:hotpath
func (t *TLB) Lookup(a isa.Addr) bool {
	t.Accesses++
	if t.access(a) {
		return true
	}
	t.Misses++
	return false
}

// access is Lookup without counters: it refreshes the page of a on a hit,
// fills it on a miss, and reports whether it hit.
//
//smtfetch:hotpath
func (t *TLB) access(a isa.Addr) bool {
	page := uint64(a) >> t.pageBits
	if i := t.mru; t.valid[i] && t.pages[i] == page {
		t.stamp++
		t.lru[i] = t.stamp
		return true
	}
	if i, ok := t.idx[page]; ok {
		t.stamp++
		t.lru[i] = t.stamp
		t.mru = i
		return true
	}
	// Miss: select the victim exactly as the original associative scan
	// did (the last invalid entry, else the unique LRU minimum), so the
	// replacement sequence is bit-identical.
	victim := 0
	for i := 0; i < t.entries; i++ {
		if !t.valid[i] {
			victim = i
		} else if t.valid[victim] && t.lru[i] < t.lru[victim] {
			victim = i
		}
	}
	if t.valid[victim] {
		delete(t.idx, t.pages[victim])
	}
	t.pages[victim] = page
	t.valid[victim] = true
	//smtfetch:allowalloc idx map size is bounded by the table's entry count: every insert evicts (deletes) a victim
	t.idx[page] = victim
	t.mru = victim
	t.stamp++
	t.lru[victim] = t.stamp
	return false
}

// mshrSet tracks the outstanding line misses of one cache port. The map
// answers "is this line in flight, and until when"; the min-heap of
// completion times lets expiry advance incrementally with the clock instead
// of scanning the whole map (the heap holds plain values, so steady-state
// operation does not allocate).
type mshrSet struct {
	ready map[isa.Addr]uint64 // line -> fill-completion cycle
	heap  []mshrRec           //smtfetch:transient min-heap ordered by ready, rebuilt from the ready map on decode
}

// mshrRec is one heap record. A line that misses again after its fill
// completed gets a second record; expire matches records against the map's
// current ready cycle so stale records retire harmlessly.
type mshrRec struct {
	ready uint64
	line  isa.Addr
}

func newMSHRSet() mshrSet {
	return mshrSet{ready: make(map[isa.Addr]uint64)}
}

// expire retires every miss whose fill completed at or before now. Amortized
// cost is O(log n) per retired miss; n is bounded by the MSHR budget.
//
//smtfetch:hotpath
func (s *mshrSet) expire(now uint64) {
	for len(s.heap) > 0 && s.heap[0].ready <= now {
		rec := s.heap[0]
		last := len(s.heap) - 1
		s.heap[0] = s.heap[last]
		s.heap = s.heap[:last]
		if last > 0 {
			s.siftDown(0)
		}
		if r, ok := s.ready[rec.line]; ok && r <= now {
			delete(s.ready, rec.line)
		}
	}
}

// inFlight reports the line's fill-completion cycle if a miss for it is
// still outstanding. Callers must expire(now) first.
//
//smtfetch:hotpath
func (s *mshrSet) inFlight(line isa.Addr) (uint64, bool) {
	r, ok := s.ready[line]
	return r, ok
}

// add records a new outstanding miss completing at ready.
//
//smtfetch:hotpath
func (s *mshrSet) add(line isa.Addr, ready uint64) {
	//smtfetch:allowalloc MSHR heap and ready map are bounded by the MSHR capacity the caller checks; backing storage is reused across misses
	s.ready[line] = ready
	//smtfetch:allowalloc MSHR heap and ready map are bounded by the MSHR capacity the caller checks; backing storage is reused across misses
	s.heap = append(s.heap, mshrRec{ready: ready, line: line})
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent].ready <= s.heap[i].ready {
			break
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

//smtfetch:hotpath
func (s *mshrSet) siftDown(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.heap[l].ready < s.heap[min].ready {
			min = l
		}
		if r < n && s.heap[r].ready < s.heap[min].ready {
			min = r
		}
		if min == i {
			return
		}
		s.heap[i], s.heap[min] = s.heap[min], s.heap[i]
		i = min
	}
}

// count returns the number of outstanding misses. Callers must expire(now)
// first.
//
//smtfetch:hotpath
func (s *mshrSet) count() int { return len(s.ready) }

// Hierarchy glues L1I, L1D, L2, the TLBs and main-memory latency together
// and owns the MSHR bookkeeping. All methods take the current cycle and
// return the cycle at which the requested line is available.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	ITLB, DTLB   *TLB

	memLat int //smtfetch:transient configured latency, fixed at construction
	tlbLat int //smtfetch:transient configured latency, fixed at construction
	imshrs mshrSet
	dmshrs mshrSet
}

// NewHierarchy builds the hierarchy from the machine configuration.
func NewHierarchy(cfg *config.Config) *Hierarchy {
	return &Hierarchy{
		L1I:    New(cfg.L1I),
		L1D:    New(cfg.L1D),
		L2:     New(cfg.L2),
		ITLB:   NewTLB(cfg.ITLBEntries),
		DTLB:   NewTLB(cfg.DTLBEntries),
		memLat: cfg.MemLatency,
		tlbLat: cfg.TLBMissLatency,
		imshrs: newMSHRSet(),
		dmshrs: newMSHRSet(),
	}
}

// AccessResult describes one hierarchy access.
type AccessResult struct {
	// Ready is the cycle at which the data is available.
	Ready uint64
	// L1Miss / L2Miss report where the access missed.
	L1Miss, L2Miss bool
	// TLBMiss reports a translation miss (latency already included).
	TLBMiss bool
	// Merged reports that the access merged onto an outstanding MSHR.
	Merged bool
}

// Instr performs an instruction fetch of the line containing a at cycle
// now.
//
//smtfetch:hotpath
func (h *Hierarchy) Instr(now uint64, a isa.Addr) AccessResult {
	return h.access(now, a, h.L1I, h.ITLB, &h.imshrs)
}

// Data performs a data access (load or store) of the line containing a at
// cycle now.
//
//smtfetch:hotpath
func (h *Hierarchy) Data(now uint64, a isa.Addr) AccessResult {
	return h.access(now, a, h.L1D, h.DTLB, &h.dmshrs)
}

//smtfetch:hotpath
func (h *Hierarchy) access(now uint64, a isa.Addr, l1 *Cache, tlb *TLB, ms *mshrSet) AccessResult {
	var res AccessResult
	penalty := uint64(0)
	if !tlb.Lookup(a) {
		res.TLBMiss = true
		penalty += uint64(h.tlbLat)
	}
	line := l1.LineAddr(a)
	ms.expire(now)
	// The fill installs the tag at allocation time, so the MSHR must be
	// consulted before the tag array: a line whose miss is still in flight
	// is not usable until the fill completes. Such an access merges onto
	// the outstanding MSHR and observes its completion cycle — it does not
	// start a new L2/memory request.
	if ready, ok := ms.inFlight(line); ok {
		l1.Accesses++
		l1.Misses++
		// The line is being actively used: keep it MRU so it is not the
		// victim for unrelated fills during its own miss window.
		l1.Touch(a)
		res.L1Miss = true
		res.Merged = true
		res.Ready = ready + penalty
		return res
	}
	if l1.Lookup(a) {
		res.Ready = now + penalty + uint64(l1.cfg.HitLatency)
		return res
	}
	res.L1Miss = true
	lat := uint64(l1.cfg.HitLatency)
	if h.L2.Lookup(a) {
		lat += uint64(h.L2.cfg.HitLatency)
	} else {
		res.L2Miss = true
		lat += uint64(h.L2.cfg.HitLatency) + uint64(h.memLat)
		h.L2.Fill(a)
	}
	l1.Fill(a)
	ready := now + penalty + lat
	ms.add(line, ready)
	res.Ready = ready
	return res
}

// InFlightData returns the number of data-line misses still outstanding at
// cycle now. The pipeline uses this to enforce the per-thread MSHR budget.
// Cost is O(1) plus amortized O(log n) per newly completed fill — never a
// full scan.
//
//smtfetch:hotpath
func (h *Hierarchy) InFlightData(now uint64) int {
	h.dmshrs.expire(now)
	return h.dmshrs.count()
}

// InFlightInstr is InFlightData for the instruction port (used by tests and
// reports).
func (h *Hierarchy) InFlightInstr(now uint64) int {
	h.imshrs.expire(now)
	return h.imshrs.count()
}

// String summarizes hit rates for debugging.
func (h *Hierarchy) String() string {
	return fmt.Sprintf("L1I miss %.4f, L1D miss %.4f, L2 miss %.4f",
		h.L1I.MissRate(), h.L1D.MissRate(), h.L2.MissRate())
}
