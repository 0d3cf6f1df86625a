package core

// Warm-state checkpoints: Snapshot serializes the complete dynamic state
// of a warmed simulator into a versioned binary artifact; Restore rebuilds
// it onto a freshly constructed simulator of identical configuration, such
// that restore-then-run is byte-identical to continuing the original.
//
// Pooled-object graphs (uops and fetch requests) are serialized by value
// into tables and every container as index lists over those tables, so a
// restored simulator re-links the graph through fresh pool acquisitions
// and the ordinary Retain/Release protocol — pool lifetime invariants hold
// by construction after a round trip, which the fuzz tests verify.
//
// Deliberately excluded from the stream, with the argument for each:
//
//   - Squashed uops (limbo quarantine, stale execList/pendingDecode
//     entries): every consumer either drops them on sight (the lazy
//     compaction scans) or treats them as absent (depReady returns "ready"
//     for squashed producers), so omitting them changes no observable
//     behaviour. The dependence rings serialize such slots as -1; a nil
//     ring entry and a squashed one are indistinguishable to depReady.
//   - The uop free list and slab: allocUOp zero-resets every uop it hands
//     out, so pool population is invisible to simulation results.
//   - FUPool issue budgets: the per-cycle counter self-resets on the first
//     TryIssue of any later cycle (cycle stamp comparison), so a zeroed
//     pool behaves identically.
//   - Per-cycle scratch (orderBuf, keyBuf, usedBanks, iqposnBuf,
//     flushBatch, flushTail, inFlightData): recomputed from scratch inside
//     every Cycle before first use.
//
// This file also implements the drain / functional fast-forward machinery
// behind SMARTS-style sampled simulation, and SetPolicy, which lets one
// warmed snapshot serve a whole family of fetch-policy cells.
//
// All cold-path code, outside the cycle loop.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"smtfetch/internal/config"
	"smtfetch/internal/ftq"
	"smtfetch/internal/isa"
	"smtfetch/internal/pipeline"
	"smtfetch/internal/snap"
)

const (
	// snapMagic is "SMTF" little-endian.
	snapMagic   = uint32('S') | uint32('M')<<8 | uint32('T')<<16 | uint32('F')<<24
	snapVersion = uint32(2)
)

// SnapshotVersion is the snapshot artifact format version. Callers that
// cache snapshot blobs (the experiment warm keys, the server's snapshot
// cache tier) fold it into their keys so a format bump invalidates stale
// artifacts instead of failing restores.
const SnapshotVersion = int(snapVersion)

// cfgHash fingerprints the simulated configuration so a snapshot can only
// be restored onto a machine that is structurally identical (same table
// sizes, latencies, policy, thread count).
func (s *Sim) cfgHash() uint64 {
	b, err := json.Marshal(s.cfg)
	if err != nil {
		panic(fmt.Sprintf("core: config not serializable: %v", err))
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Snapshot serializes the simulator's complete dynamic state at a cycle
// boundary. The artifact is versioned and keyed to the configuration; see
// Restore for the inverse.
//
//smtfetch:poolowner
func (s *Sim) Snapshot() ([]byte, error) {
	for t := range s.threads {
		if s.threads[t].pendingFlush != nil {
			// pendingFlush is set and consumed within a single Cycle call;
			// seeing it here means Snapshot was called mid-cycle.
			return nil, fmt.Errorf("core: snapshot mid-cycle: thread %d has a pending flush", t)
		}
	}

	// Enumerate live (non-squashed) uops in a deterministic order: ROB
	// thread-by-thread oldest-first, then the front-end rings, the
	// execution-side lists, and FLUSH replay queues. First occurrence
	// assigns the table index.
	uopIdx := make(map[*pipeline.UOp]int)
	var uops []*pipeline.UOp
	add := func(u *pipeline.UOp) {
		if u == nil || u.Squashed {
			return
		}
		if _, ok := uopIdx[u]; ok {
			return
		}
		uopIdx[u] = len(uops)
		uops = append(uops, u)
	}
	s.rob.Each(add)
	for i, n := 0, s.fetchBuf.Len(); i < n; i++ {
		add(s.fetchBuf.At(i))
	}
	for i, n := 0, s.frontPipe.Len(); i < n; i++ {
		add(s.frontPipe.At(i))
	}
	for _, u := range s.execList {
		add(u)
	}
	for _, u := range s.pendingDecode {
		add(u)
	}
	for t := range s.threads {
		ts := &s.threads[t]
		for _, u := range ts.replay[ts.replayPos:] {
			add(u)
		}
	}

	// Enumerate pooled fetch requests: FTQ contents oldest-first per
	// thread, then requests pinned only by uops (stragglers), in uop-table
	// order.
	reqIdx := make(map[*ftq.Request]int)
	var reqs []*ftq.Request
	for t := 0; t < s.nthreads; t++ {
		s.fe.Queue(t).Each(func(r *ftq.Request) {
			reqIdx[r] = len(reqs)
			reqs = append(reqs, r)
		})
	}
	for _, u := range uops {
		if u.Req == nil {
			continue
		}
		if _, ok := reqIdx[u.Req]; !ok {
			reqIdx[u.Req] = len(reqs)
			reqs = append(reqs, u.Req)
		}
	}

	c := snap.NewEncoder()
	put := func(v int) { c.Int(&v) }
	s.snapHeader(c)

	// Request table. The thread id is written ahead of the content so
	// Restore can acquire from the right per-thread pool before decoding.
	put(len(reqs))
	for _, r := range reqs {
		put(r.Thread)
		r.Snap(c)
	}

	// Front end: predictor tables, per-thread speculative state, trace
	// cursors, and FTQ contents as request-table indices.
	s.fe.Snap(c, func(r *ftq.Request) int { return reqIdx[r] }, nil)

	// Uop table: payload plus the (request, branch-slot) link re-binding
	// Info/Req on restore.
	put(len(uops))
	for _, u := range uops {
		u.Snap(c)
		if u.Req != nil {
			slot := u.Req.BranchSlot(u.Info)
			if slot < 0 {
				return nil, fmt.Errorf("core: uop branch info does not belong to its request")
			}
			put(reqIdx[u.Req])
			put(slot)
		} else {
			put(-1)
			put(-1)
		}
	}

	// Containers as uop-table index lists, in the same order Restore
	// rebuilds them. Execution-side lists and replay queues drop their
	// squashed entries (the list's next lazy scan would drop them anyway)
	// and replay queues their consumed prefix (replayPos normalizes to
	// zero).
	putList := func(list []*pipeline.UOp) {
		n := 0
		for _, u := range list {
			if !u.Squashed {
				n++
			}
		}
		put(n)
		for _, u := range list {
			if !u.Squashed {
				put(uopIdx[u])
			}
		}
	}
	put(s.rob.Len())
	s.rob.Each(func(u *pipeline.UOp) { put(uopIdx[u]) })
	for k := 0; k < pipeline.NumQueues; k++ {
		q := s.iqs[k]
		put(q.Len())
		q.Each(func(u *pipeline.UOp) { put(uopIdx[u]) })
	}
	for _, ring := range []*pipeline.UOpRing{s.fetchBuf, s.frontPipe} {
		put(ring.Len())
		for i := 0; i < ring.Len(); i++ {
			put(uopIdx[ring.At(i)])
		}
	}
	putList(s.execList)
	putList(s.pendingDecode)
	for t := range s.threads {
		ts := &s.threads[t]
		putList(ts.replay[ts.replayPos:])
	}

	// Dependence rings: index-or-(-1) per slot, canonicalized. A slot is
	// serialized only when its uop still owns it — live, same thread, and
	// PathSeq mapping back to the slot. Everything else (nil, squashed,
	// freed, or a recycled object that now lives elsewhere) fails
	// depReady's identity validation identically to nil, and whether a
	// freed object was recycled into some live uop depends on pool
	// history, which differs between an original and a restored simulator;
	// canonicalizing keeps their snapshots byte-identical.
	for t := range s.threads {
		ts := &s.threads[t]
		for i := range ts.ring {
			u := ts.ring[i]
			if u == nil || u.Squashed || u.Thread != t ||
				int(u.PathSeq&((1<<ringBits)-1)) != i {
				put(-1)
				continue
			}
			if idx, ok := uopIdx[u]; ok {
				put(idx)
			} else {
				put(-1)
			}
		}
	}

	s.snapScalars(c)
	if err := c.Err(); err != nil {
		return nil, err
	}
	return c.Bytes(), nil
}

// snapHeader codes the stream header: magic, format version,
// configuration fingerprint and thread count, each checked against the
// receiver when decoding, then the clock and the global sequence number.
func (s *Sim) snapHeader(c *snap.Codec) {
	magic, version, cfg, n := snapMagic, snapVersion, s.cfgHash(), s.nthreads
	c.U32(&magic)
	if magic != snapMagic {
		c.Fail("core: not a snapshot (bad magic %#x)", magic)
		return
	}
	c.U32(&version)
	if version != snapVersion {
		c.Fail("core: snapshot version %d, this build reads %d", version, snapVersion)
		return
	}
	c.U64(&cfg)
	if cfg != s.cfgHash() {
		c.Fail("core: snapshot was taken under a different configuration")
		return
	}
	c.Int(&n)
	if n != s.nthreads {
		c.Fail("core: snapshot has %d threads, simulator has %d", n, s.nthreads)
		return
	}
	c.U64(&s.now)
	c.U64(&s.gseq)
}

// snapScalars codes the tail of the stream: per-thread policy-signal
// counters and stall deadlines, the register free counts, the memory
// hierarchy and the statistics.
func (s *Sim) snapScalars(c *snap.Codec) {
	for t := range s.threads {
		ts := &s.threads[t]
		c.Int(&ts.icount)
		c.U64(&ts.predictStallUntil)
		c.U64(&ts.icacheBlockedUntil)
		c.Int(&ts.brcount)
		c.Int(&ts.dmisses)
		c.Int(&ts.longLoads)
		c.Int(&s.flowBase[t])
	}
	for _, regs := range []*pipeline.RegFile{s.intRegs, s.fpRegs} {
		free := regs.Free()
		c.Int(&free)
		regs.SetFree(free)
	}
	s.hier.Snap(c)
	s.st.Snap(c)
}

// Restore rebuilds the state serialized by Snapshot onto a freshly
// constructed simulator of identical configuration (same config, programs,
// and seed as the snapshotted one). On error the simulator is left
// partially restored and must be discarded.
//
//smtfetch:poolowner
func (s *Sim) Restore(blob []byte) error {
	if s.now != 0 || s.rob.Len() != 0 || s.fetchBuf.Len() != 0 ||
		s.frontPipe.Len() != 0 || len(s.execList) != 0 {
		return fmt.Errorf("core: Restore requires a freshly constructed simulator")
	}
	c := snap.NewDecoder(blob)
	get := func() int {
		var v int
		c.Int(&v)
		return v
	}
	s.snapHeader(c)

	// Request table: acquire fresh requests from the per-thread pools and
	// decode content into them. Each starts with the pool's creator
	// reference; queue pushes take those over below, and stragglers drop
	// theirs once the pinning uops have re-added their references.
	nreq := get()
	if err := c.Err(); err != nil {
		return err
	}
	if nreq < 0 || nreq > len(blob) {
		return fmt.Errorf("core: implausible request count %d", nreq)
	}
	reqs := make([]*ftq.Request, nreq)
	for i := range reqs {
		t := get()
		if err := c.Err(); err != nil {
			return err
		}
		if t < 0 || t >= s.nthreads {
			return fmt.Errorf("core: request %d has thread %d out of range", i, t)
		}
		req := s.fe.Pool(t).Get(t)
		req.Snap(c)
		reqs[i] = req
	}

	queued := make([]bool, nreq)
	s.fe.Snap(c, nil, func(i int) *ftq.Request {
		if i < 0 || i >= nreq {
			return nil
		}
		queued[i] = true
		return reqs[i]
	})
	if err := c.Err(); err != nil {
		return err
	}

	// Uop table: fresh pool uops, re-linked to their requests through the
	// ordinary Retain protocol.
	nuop := get()
	if err := c.Err(); err != nil {
		return err
	}
	if nuop < 0 || nuop > len(blob) {
		return fmt.Errorf("core: implausible uop count %d", nuop)
	}
	uops := make([]*pipeline.UOp, nuop)
	for i := range uops {
		u := s.allocUOp()
		u.Snap(c)
		ri := get()
		slot := get()
		if err := c.Err(); err != nil {
			return err
		}
		if ri >= 0 {
			if ri >= nreq || slot < 0 {
				return fmt.Errorf("core: uop %d has bad request link (%d, %d)", i, ri, slot)
			}
			bi := reqs[ri].Branch(slot)
			if bi == nil {
				return fmt.Errorf("core: uop %d links to non-branch slot %d", i, slot)
			}
			u.Req = reqs[ri]
			u.Info = bi
			u.Req.Retain()
		}
		uops[i] = u
	}
	uopAt := func(i int) (*pipeline.UOp, error) {
		if err := c.Err(); err != nil {
			return nil, err
		}
		if i < 0 || i >= nuop {
			return nil, fmt.Errorf("core: uop index %d out of range", i)
		}
		return uops[i], nil
	}

	// Containers, in Snapshot's order.
	nrob := get()
	for i := 0; i < nrob; i++ {
		u, err := uopAt(get())
		if err != nil {
			return err
		}
		if !s.rob.Dispatch(u) {
			return fmt.Errorf("core: ROB overflow during restore")
		}
	}
	for k := 0; k < pipeline.NumQueues; k++ {
		cnt := get()
		for i := 0; i < cnt; i++ {
			u, err := uopAt(get())
			if err != nil {
				return err
			}
			if !s.iqs[k].Add(u) {
				return fmt.Errorf("core: issue queue %d overflow during restore", k)
			}
		}
	}
	for _, ring := range []*pipeline.UOpRing{s.fetchBuf, s.frontPipe} {
		cnt := get()
		if err := c.Err(); err != nil {
			return err
		}
		if cnt > ring.Cap() {
			return fmt.Errorf("core: snapshot front-end buffer holds %d uops, capacity %d", cnt, ring.Cap())
		}
		for i := 0; i < cnt; i++ {
			u, err := uopAt(get())
			if err != nil {
				return err
			}
			ring.Push(u)
		}
	}
	for _, list := range []*[]*pipeline.UOp{&s.execList, &s.pendingDecode} {
		cnt := get()
		for i := 0; i < cnt; i++ {
			u, err := uopAt(get())
			if err != nil {
				return err
			}
			*list = append(*list, u)
		}
	}
	for t := range s.threads {
		ts := &s.threads[t]
		cnt := get()
		if err := c.Err(); err != nil {
			return err
		}
		if cnt > 0 && ts.replay == nil {
			// Snapshots taken under the FLUSH policy carry replay queues;
			// the receiver was built under the same policy (cfgHash), so
			// this is only reachable on corrupt input.
			return fmt.Errorf("core: snapshot has replay uops but simulator has no replay queue")
		}
		if cnt > cap(ts.replay) {
			return fmt.Errorf("core: snapshot replay queue holds %d uops, capacity %d", cnt, cap(ts.replay))
		}
		for i := 0; i < cnt; i++ {
			u, err := uopAt(get())
			if err != nil {
				return err
			}
			ts.replay = append(ts.replay, u)
		}
		ts.replayPos = 0
	}

	for t := range s.threads {
		ts := &s.threads[t]
		for i := range ts.ring {
			idx := get()
			if idx < 0 {
				continue
			}
			u, err := uopAt(idx)
			if err != nil {
				return err
			}
			ts.ring[i] = u
		}
	}

	// Straggler requests (pinned only by uops) now hold their pinning
	// uops' references plus the pool creator reference; drop the latter.
	for i, req := range reqs {
		if !queued[i] {
			req.Release()
		}
	}

	s.snapScalars(c)
	if err := c.Err(); err != nil {
		return err
	}
	if c.Rest() != 0 {
		return fmt.Errorf("core: %d trailing bytes after snapshot", c.Rest())
	}
	return nil
}

// SetPolicy switches the simulator's fetch policy in place, so one warmed
// snapshot (taken under a canonical policy) can be forked into every cell
// of a policy sweep. The fetch bandwidth (threads-per-cycle and width)
// must not change: it sizes buffers and the fetch histogram. The switch
// must happen at a point with no FLUSH replay in flight.
//
// SetPolicy is pool machinery: switching to FLUSH lazily allocates the
// replay and flush-batch buffers New would have pre-sized.
//
//smtfetch:poolowner
func (s *Sim) SetPolicy(p config.FetchPolicy) error {
	cur := s.cfg.FetchPolicy
	if p.Threads != cur.Threads || p.Width != cur.Width {
		return fmt.Errorf("core: SetPolicy cannot change fetch bandwidth (%d.%d -> %d.%d)",
			cur.Threads, cur.Width, p.Threads, p.Width)
	}
	tmp := *s.cfg
	tmp.FetchPolicy = p
	if err := tmp.Validate(); err != nil {
		return err
	}
	for t := range s.threads {
		ts := &s.threads[t]
		if ts.replayPos < len(ts.replay) || ts.pendingFlush != nil {
			return fmt.Errorf("core: SetPolicy with FLUSH replay in flight on thread %d", t)
		}
	}
	s.cfg.FetchPolicy = p
	s.gateLongLoads = p.Policy == config.Stall || p.Policy == config.Flush
	s.flushPolicy = p.Policy == config.Flush
	s.needIQPosn = p.Policy == config.IQPosn
	if s.needIQPosn && s.iqposnBuf == nil {
		s.iqposnBuf = make([]int, s.nthreads)
	}
	if s.flushPolicy {
		bound := inFlightBound(s.cfg)
		if s.flushBatch == nil {
			s.flushBatch = make([]*pipeline.UOp, 0, bound)
			s.flushTail = make([]*pipeline.UOp, 0, bound)
		}
		for i := range s.threads {
			if s.threads[i].replay == nil {
				s.threads[i].replay = make([]*pipeline.UOp, 0, bound)
			}
		}
	}
	return nil
}

// drained reports whether the pipeline holds no work at all: every
// in-flight structure empty, no FLUSH replay pending, and each thread's
// front end sitting cleanly on its committed trace.
func (s *Sim) drained() bool {
	if s.rob.Len() != 0 || s.fetchBuf.Len() != 0 || s.frontPipe.Len() != 0 ||
		len(s.execList) != 0 || len(s.pendingDecode) != 0 ||
		len(s.limboCur) != 0 || len(s.limboOld) != 0 {
		return false
	}
	for t := 0; t < s.nthreads; t++ {
		ts := &s.threads[t]
		if ts.replayPos < len(ts.replay) {
			return false
		}
		if !s.fe.Drained(t) {
			return false
		}
	}
	return true
}

// Drained reports whether the pipeline is fully drained (see Drain).
func (s *Sim) Drained() bool { return s.drained() }

// Drain runs the pipeline with the prediction stage gated off until every
// in-flight instruction has retired or been squashed and all FTQ contents
// are consumed, leaving each thread's front end exactly on its committed
// trace. Drain cycles count toward s.Cycles() and the statistics; sampled
// simulation places them outside its measurement windows. maxCycles bounds
// the wait (a generous multiple of the memory latency suffices: with
// prediction off the in-flight population only shrinks).
func (s *Sim) Drain(maxCycles uint64) error {
	s.drainMode = true
	defer func() { s.drainMode = false }()
	limit := s.now + maxCycles
	for !s.drained() {
		if s.now >= limit {
			return fmt.Errorf("core: pipeline failed to drain within %d cycles", maxCycles)
		}
		s.Cycle()
	}
	return nil
}

// FastForwardShares functionally executes n committed-path instructions:
// predictors train on true outcomes, caches and TLBs are warmed along the
// reference stream, but no cycles elapse and no statistics accumulate.
// The pipeline must be drained first. The n instructions are apportioned
// across threads proportionally to shares (smooth weighted round-robin,
// deterministic). Sampled simulation passes the per-thread commit counts
// of the preceding detail interval so that policy-induced progress skew —
// the dominant long-timescale effect an equal-progress fast-forward would
// erase (FLUSH and STALL starve or favor threads for their whole run) —
// keeps accumulating across the functional gaps. An all-zero shares
// vector counts as all-equal, which visits threads 0, 1, …, N−1 in turn.
func (s *Sim) FastForwardShares(n uint64, shares []uint64) error {
	if len(shares) != s.nthreads {
		return fmt.Errorf("core: FastForwardShares wants %d shares, got %d", s.nthreads, len(shares))
	}
	if !s.drained() {
		return fmt.Errorf("core: FastForwardShares requires a drained pipeline (call Drain first)")
	}
	var total int64
	for _, w := range shares {
		total += int64(w)
	}
	if total == 0 {
		shares = make([]uint64, s.nthreads)
		for t := range shares {
			shares[t] = 1
		}
		total = int64(s.nthreads)
	}
	for t := 0; t < s.nthreads; t++ {
		s.fe.BeginFunctional(t)
	}
	// Smooth weighted round-robin: each slot goes to the thread with the
	// highest accumulated credit (the lowest-numbered one on a tie),
	// interleaving threads at their share ratio (so cache/TLB warming
	// sees a representative reference mix, not one thread's burst
	// followed by another's).
	credit := make([]int64, s.nthreads)
	for i := uint64(0); i < n; i++ {
		best := 0
		for t := 0; t < s.nthreads; t++ {
			credit[t] += int64(shares[t])
			if credit[t] > credit[best] {
				best = t
			}
		}
		credit[best] -= total
		in := s.fe.FunctionalAdvance(best)
		s.hier.WarmInstr(in.PC)
		if in.Class == isa.Load || in.Class == isa.Store {
			s.hier.WarmData(in.EffAddr)
		}
	}
	return nil
}
