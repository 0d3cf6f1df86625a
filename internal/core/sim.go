// Package core implements the cycle-level SMT processor simulator: a
// 9-stage pipeline with the decoupled front-end of the paper (prediction
// stage -> FTQs -> fetch stage) feeding a shared out-of-order back-end
// (decode/rename, shared ROB and issue queues), with trace-driven
// wrong-path execution and the full SMT fetch-policy family (ICOUNT, RR,
// BRCOUNT, MISSCOUNT, IQPOSN, STALL, FLUSH) selecting which threads fetch
// each cycle.
//
// The cycle loop is allocation-free in steady state: uops come from a
// per-simulator free list recycled at commit and (after a two-cycle
// quarantine) at squash, the fetch and decode buffers are ring buffers, and
// every per-cycle scratch structure is reused.
package core

import (
	"fmt"

	"smtfetch/internal/cache"
	"smtfetch/internal/config"
	"smtfetch/internal/fetch"
	"smtfetch/internal/ftq"
	"smtfetch/internal/isa"
	"smtfetch/internal/pipeline"
	"smtfetch/internal/prog"
	"smtfetch/internal/stats"
)

// ringBits sizes the per-thread dependence-lookup ring. New rejects a
// machine whose in-flight bound plus the largest dependence distance does
// not fit it.
const ringBits = 12

// decodeCapacity is the most uops the decode/rename pipe holds: one
// decode-width cohort per stage, which is exactly what the pipe carries
// when it runs at full rate, so the bound never caps throughput.
func decodeCapacity(cfg *config.Config) int {
	return (cfg.DecodeStages + cfg.RenameStages) * cfg.DecodeWidth
}

// inFlightBound is the most uops one thread can have fetched but neither
// committed nor squashed: the ROB, the decode/rename pipe and the fetch
// buffer, each at capacity. A FLUSH replay queue holds uops taken out of
// those structures, and the thread fetches nothing new until it is empty,
// so it never raises the total.
func inFlightBound(cfg *config.Config) int {
	return cfg.ROBSize + cfg.FetchBufferSize + decodeCapacity(cfg)
}

// threadState retains pooled uops (pendingFlush, replay, ring) by design:
// flushed uops stay live until replayed, and the dependence ring is
// identity-validated on every read, so stale pointers are harmless.
//
//smtfetch:poolowner
type threadState struct {
	icount             int
	predictStallUntil  uint64
	icacheBlockedUntil uint64
	// Fetch-policy signals beyond ICOUNT, maintained incrementally so no
	// policy ever scans the pipeline: unresolved branches in flight
	// (BRCOUNT), outstanding D-cache misses (MISSCOUNT), and outstanding
	// long-latency loads (the STALL/FLUSH gate).
	brcount   int
	dmisses   int
	longLoads int
	// pendingFlush is the oldest long-latency load detected this cycle
	// under the FLUSH policy; flushStage consumes it.
	pendingFlush *pipeline.UOp //smtfetch:transient intra-cycle only; Snapshot refuses mid-cycle state, so always nil at a cycle boundary
	// replay holds uops removed by a FLUSH event, in program order, from
	// replayPos on; they re-enter the fetch buffer once the triggering
	// load's miss resolves. Flushed uops keep their fetch-request
	// references, so they appear in no other pipeline structure but are
	// still live.
	replay    []*pipeline.UOp
	replayPos int
	// ring resolves dependence distances: PathSeq -> producing uop. Entries
	// may point at uops that have since been recycled; depReady validates
	// identity (thread, path kind, PathSeq) before trusting one.
	ring [1 << ringBits]*pipeline.UOp
}

// Sim is one simulated SMT processor executing a fixed set of threads.
//
// Sim is the uop pool's root owner: freeUOps/uopSlab are the free list and
// arena, limboCur/limboOld the recycling quarantine, and
// execList/pendingDecode/flushBatch/flushTail per-cycle working sets that
// drop squashed entries lazily. CheckInvariants walks all of them.
//
//smtfetch:poolowner
type Sim struct {
	cfg  *config.Config
	fe   *fetch.FrontEnd
	hier *cache.Hierarchy
	lat  isa.LatencyTable //smtfetch:transient construction-time latency table
	st   *stats.Stats

	rob     *pipeline.ROB
	iqs     [pipeline.NumQueues]*pipeline.IssueQueue
	intRegs *pipeline.RegFile
	fpRegs  *pipeline.RegFile
	intFUs  *pipeline.FUPool //smtfetch:transient per-cycle issue budget self-resets on the next TryIssue
	lsFUs   *pipeline.FUPool //smtfetch:transient per-cycle issue budget self-resets on the next TryIssue
	fpFUs   *pipeline.FUPool //smtfetch:transient per-cycle issue budget self-resets on the next TryIssue

	fetchBuf      *pipeline.UOpRing
	frontPipe     *pipeline.UOpRing
	execList      []*pipeline.UOp
	pendingDecode []*pipeline.UOp

	// freeUOps is the uop free list. Squashed uops pass through a
	// two-cycle limbo quarantine first, because execList and pendingDecode
	// drop squashed entries lazily on their next scan. uopSlab is the
	// current allocation block: new uops are created uopSlabSize at a time
	// so working-set growth costs one heap allocation per slab.
	freeUOps []*pipeline.UOp //smtfetch:transient pool free list; allocUOp zero-resets, population is invisible
	uopSlab  []pipeline.UOp  //smtfetch:transient allocation block backing the pool
	uopsMade int             //smtfetch:transient arena size, pool population is invisible
	limboCur []*pipeline.UOp //smtfetch:transient squashed-uop quarantine, canonicalized out of the stream
	limboOld []*pipeline.UOp //smtfetch:transient squashed-uop quarantine, canonicalized out of the stream

	// Reusable per-cycle scratch: thread order, policy priority keys, and
	// the fetch-stage bank-conflict bitmask.
	orderBuf  []int  //smtfetch:transient per-cycle scratch, recomputed before first use
	keyBuf    []int  //smtfetch:transient per-cycle scratch, recomputed before first use
	usedBanks uint64 //smtfetch:transient per-cycle scratch, recomputed before first use
	// iqposnBuf holds the per-thread issue-queue head-proximity penalty,
	// recomputed each cycle under the IQPOSN policy only.
	iqposnBuf []int //smtfetch:transient per-cycle scratch, recomputed before first use
	// flushBatch/flushTail are FLUSH-policy scratch: the uops collected by
	// the current flush event, and the surviving tail of an older replay
	// queue being merged behind them.
	flushBatch []*pipeline.UOp //smtfetch:transient per-flush-event scratch
	flushTail  []*pipeline.UOp //smtfetch:transient per-flush-event scratch

	fetchEligible   func(t int) bool //smtfetch:transient policy closure, rebound by SetPolicy
	predictEligible func(t int) bool //smtfetch:transient policy closure, rebound by SetPolicy

	// Policy-derived switches, fixed at construction: gate fetch on
	// outstanding long-latency loads (STALL/FLUSH), flush on detection
	// (FLUSH), recompute IQ positions (IQPOSN).
	gateLongLoads bool //smtfetch:transient policy switch derived from cfg, rebound by SetPolicy
	flushPolicy   bool //smtfetch:transient policy switch derived from cfg, rebound by SetPolicy
	needIQPosn    bool //smtfetch:transient policy switch derived from cfg, rebound by SetPolicy
	// longLatThreshold classifies a load as long-latency when its
	// completion lies at least this many cycles out (the memory latency:
	// only L2 misses reach it).
	longLatThreshold uint64 //smtfetch:transient derived from configured memory latency

	threads  []threadState
	nthreads int
	// flowBase[t] is thread t's in-flight count when the statistics were
	// last reset (0 at construction); CheckFlow balances the counters
	// accumulated since then against it.
	flowBase []int

	// drainMode gates the prediction stage off so the pipeline empties
	// while consuming (never discarding) FTQ contents; Drain in state.go
	// sets it around its cycle loop.
	drainMode bool //smtfetch:transient set only inside Drain around its cycle loop

	now  uint64
	gseq uint64

	frontLatency int //smtfetch:transient derived from cfg at construction
	mshrCap      int //smtfetch:transient derived from cfg at construction
	inFlightData int //smtfetch:transient per-cycle scratch, recomputed before first use
}

// New builds a simulator for the given configuration and per-thread
// programs. seed makes the whole run deterministic.
//
// New is pool machinery: it pre-sizes every uop-retaining buffer to its
// pipeline bound so the steady state never grows them.
//
//smtfetch:poolowner
func New(cfg config.Config, programs []*prog.Program, seed uint64) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(programs) == 0 {
		return nil, fmt.Errorf("core: no programs")
	}
	if len(programs) > cfg.MaxThreads {
		return nil, fmt.Errorf("core: %d threads exceeds MaxThreads=%d", len(programs), cfg.MaxThreads)
	}
	// A producer must keep its dependence-ring slot while any consumer can
	// still look it up. Each term is checked alone too, so an absurd
	// machine cannot overflow the sum back into range.
	const ringSize = 1 << ringBits
	bound := inFlightBound(&cfg)
	if cfg.ROBSize > ringSize || cfg.FetchBufferSize > ringSize || cfg.DecodeWidth > ringSize ||
		cfg.DecodeStages+cfg.RenameStages > ringSize || bound+prog.MaxDepDist > ringSize {
		return nil, fmt.Errorf("core: a thread's in-flight window (ROB %d + fetch buffer %d + decode/rename %d) plus dependence distance %d exceeds the %d-entry dependence ring",
			cfg.ROBSize, cfg.FetchBufferSize, decodeCapacity(&cfg), prog.MaxDepDist, ringSize)
	}
	n := len(programs)
	s := &Sim{
		cfg:      &cfg,
		hier:     cache.NewHierarchy(&cfg),
		lat:      isa.DefaultLatencies(),
		rob:      pipeline.NewROB(cfg.ROBSize, n),
		intRegs:  pipeline.NewRegFile(cfg.IntRegs, 32*n),
		fpRegs:   pipeline.NewRegFile(cfg.FPRegs, 32*n),
		intFUs:   pipeline.NewFUPool(cfg.IntUnits),
		lsFUs:    pipeline.NewFUPool(cfg.LSUnits),
		fpFUs:    pipeline.NewFUPool(cfg.FPUnits),
		threads:  make([]threadState, n),
		nthreads: n,
		flowBase: make([]int, n),

		fetchBuf:  pipeline.NewUOpRing(cfg.FetchBufferSize),
		frontPipe: pipeline.NewUOpRing(decodeCapacity(&cfg)),
		orderBuf:  make([]int, 0, n),
		keyBuf:    make([]int, n),

		frontLatency: cfg.DecodeStages + cfg.RenameStages,
		mshrCap:      cfg.DMSHRs * n,

		gateLongLoads:    cfg.FetchPolicy.Policy == config.Stall || cfg.FetchPolicy.Policy == config.Flush,
		flushPolicy:      cfg.FetchPolicy.Policy == config.Flush,
		needIQPosn:       cfg.FetchPolicy.Policy == config.IQPosn,
		longLatThreshold: uint64(cfg.MemLatency),
	}
	if s.needIQPosn {
		s.iqposnBuf = make([]int, n)
	}
	if s.flushPolicy {
		// Pre-sizing to the in-flight bound keeps the flush and replay
		// paths allocation-free from the first event.
		s.flushBatch = make([]*pipeline.UOp, 0, bound)
		s.flushTail = make([]*pipeline.UOp, 0, bound)
		for i := range s.threads {
			s.threads[i].replay = make([]*pipeline.UOp, 0, bound)
		}
	}
	s.fe = fetch.New(&cfg, programs, seed)
	s.iqs[pipeline.QInt] = pipeline.NewIssueQueue(cfg.IntQueueSize)
	s.iqs[pipeline.QLoadStore] = pipeline.NewIssueQueue(cfg.LSQueueSize)
	s.iqs[pipeline.QFloat] = pipeline.NewIssueQueue(cfg.FPQueueSize)
	s.st = stats.New(n, cfg.FetchPolicy.Width)
	// Built once so the per-cycle Prioritize calls never allocate a
	// closure.
	s.fetchEligible = func(t int) bool {
		ts := &s.threads[t]
		if s.gateLongLoads && ts.longLoads > 0 {
			return false
		}
		if ts.icacheBlockedUntil > s.now {
			return false
		}
		if ts.replayPos < len(ts.replay) {
			return true
		}
		return s.fe.Queue(t).Len() > 0
	}
	s.predictEligible = func(t int) bool {
		ts := &s.threads[t]
		if s.gateLongLoads && ts.longLoads > 0 {
			return false
		}
		if ts.predictStallUntil > s.now {
			return false
		}
		return s.fe.CanPredict(t)
	}
	return s, nil
}

// Stats returns the accumulated statistics.
func (s *Sim) Stats() *stats.Stats { return s.st }

// Config returns the simulated configuration.
func (s *Sim) Config() config.Config { return *s.cfg }

// Cycles returns the current cycle count.
func (s *Sim) Cycles() uint64 { return s.now }

// ResetStats replaces the statistics counters with fresh zeroed ones, so
// that everything accumulated so far (the warm-up phase) is excluded from
// subsequently reported numbers.
func (s *Sim) ResetStats() {
	s.st = stats.New(s.nthreads, s.cfg.FetchPolicy.Width)
	for t := range s.flowBase {
		s.flowBase[t] = s.inFlight(t)
	}
}

// Run simulates until totalCommits instructions have committed or
// maxCycles cycles elapsed, and returns the statistics.
func (s *Sim) Run(totalCommits, maxCycles uint64) *stats.Stats {
	base := s.st.Committed
	limit := s.now + maxCycles
	for s.st.Committed-base < totalCommits && s.now < limit {
		s.Cycle()
	}
	return s.st
}

// RunCycles simulates exactly n cycles (used for cycle-based warm-up).
func (s *Sim) RunCycles(n uint64) *stats.Stats {
	for limit := s.now + n; s.now < limit; {
		s.Cycle()
	}
	return s.st
}

// Cycle advances the processor one cycle. Stages run back to front so a
// resource freed this cycle is usable next cycle, not instantaneously.
//
// Cycle is the zero-alloc root: it and everything it calls runs once per
// simulated cycle and must not allocate (see internal/lint).
//
//smtfetch:hotpath
func (s *Sim) Cycle() {
	s.recycleLimbo()
	s.commit()
	s.writeback()
	s.decodeResolve()
	s.issue()
	if s.flushPolicy {
		s.flushStage()
	}
	if s.needIQPosn {
		s.computeIQPosn()
	}
	s.dispatch()
	s.decodeAdvance()
	s.fetchStage()
	s.predictStage()
	s.now++
	s.st.Cycles++
}

// recycleLimbo returns quarantined squashed uops to the free list. A uop
// squashed during cycle N may still sit in execList or pendingDecode until
// their cycle-N+1 scans drop it, so it becomes reusable at the top of cycle
// N+2 — exactly when it leaves limboOld.
//
//smtfetch:hotpath
func (s *Sim) recycleLimbo() {
	for i, u := range s.limboOld {
		//smtfetch:allowalloc free-list capacity converges to the allocated uop population; growth stops once the pool is warm
		s.freeUOps = append(s.freeUOps, u)
		s.limboOld[i] = nil
	}
	s.limboOld, s.limboCur = s.limboCur, s.limboOld[:0]
}

// uopSlabSize is the uop arena's allocation granularity.
const uopSlabSize = 256

// allocUOp takes a uop from the free list (or the current slab when the
// list is empty) and resets it.
//
//smtfetch:poolowner
//smtfetch:hotpath
func (s *Sim) allocUOp() *pipeline.UOp {
	if n := len(s.freeUOps); n > 0 {
		u := s.freeUOps[n-1]
		s.freeUOps[n-1] = nil
		s.freeUOps = s.freeUOps[:n-1]
		*u = pipeline.UOp{}
		return u
	}
	if len(s.uopSlab) == 0 {
		//smtfetch:allowalloc slab growth: one heap allocation per uopSlabSize uops, only while the working set still grows
		s.uopSlab = make([]pipeline.UOp, uopSlabSize)
		s.uopsMade += uopSlabSize
	}
	u := &s.uopSlab[0]
	s.uopSlab = s.uopSlab[1:]
	return u
}

// policyKeys gathers the per-thread priority values the configured fetch
// policy orders by (lower = higher priority) into the reused scratch slice.
// STALL and FLUSH order like ICOUNT; their gating happens in the
// eligibility callbacks.
//
//smtfetch:hotpath
func (s *Sim) policyKeys() []int {
	switch s.cfg.FetchPolicy.Policy {
	case config.BRCount:
		for i := range s.threads {
			s.keyBuf[i] = s.threads[i].brcount
		}
	case config.MissCount:
		for i := range s.threads {
			s.keyBuf[i] = s.threads[i].dmisses
		}
	case config.IQPosn:
		return s.iqposnBuf
	default:
		for i := range s.threads {
			s.keyBuf[i] = s.threads[i].icount
		}
	}
	return s.keyBuf
}

// computeIQPosn recomputes the IQPOSN penalty: for each issue queue, a
// thread's oldest entry at position p (0 = head) contributes cap-p — the
// closer a thread's work sits to a queue head, the longer it has clogged
// that queue, and the lower its fetch priority. Runs only under the IQPOSN
// policy, after issue has removed this cycle's issued entries.
//
//smtfetch:hotpath
func (s *Sim) computeIQPosn() {
	for i := range s.iqposnBuf {
		s.iqposnBuf[i] = 0
	}
	for _, q := range s.iqs {
		qcap := q.Cap()
		pos := 0
		var seen uint64
		for i, n := 0, q.Len(); i < n; i++ {
			u := q.At(i)
			if u.Squashed || u.Flushed {
				continue
			}
			if seen&(1<<uint(u.Thread)) == 0 {
				seen |= 1 << uint(u.Thread)
				s.iqposnBuf[u.Thread] += qcap - pos
			}
			pos++
		}
	}
}

// dropSignals removes u's contributions to the fetch-policy signal
// counters when it leaves the pipeline early (squash or flush). The
// normal-completion decrements happen at issue (ICOUNT) and writeback
// (BRCOUNT, MISSCOUNT, long-load gate).
//
//smtfetch:hotpath
func (s *Sim) dropSignals(ts *threadState, u *pipeline.UOp) {
	if u.InICount {
		u.InICount = false
		ts.icount--
	}
	if u.InBRCount {
		u.InBRCount = false
		ts.brcount--
	}
	if u.DMiss {
		u.DMiss = false
		ts.dmisses--
	}
	if u.LongMiss {
		u.LongMiss = false
		ts.longLoads--
	}
}

// ---------------------------------------------------------------- commit

//smtfetch:hotpath
func (s *Sim) commit() {
	budget := s.cfg.CommitWidth
	start := int(s.now % uint64(s.nthreads))
	for i := 0; i < s.nthreads && budget > 0; i++ {
		t := (start + i) % s.nthreads
		for budget > 0 {
			u := s.rob.Head(t)
			if u == nil || !u.Done {
				break
			}
			if u.Ghost {
				panic("core: ghost uop reached commit")
			}
			s.rob.PopHead(t)
			s.releaseReg(u)
			budget--
			s.st.Committed++
			s.st.PerThread[t].Committed++
			if u.IsBranch() || u.Info != nil {
				s.commitBranch(t, u)
			}
			// Commit is the uop's last use: it has left the ROB, the
			// issue queues, and the exec list; the dependence ring
			// validates identity before trusting its (possibly stale)
			// pointer. Dropping the fetch-request reference may return
			// the request to its pool.
			s.releaseRequest(u)
			//smtfetch:allowalloc free-list capacity converges to the allocated uop population; growth stops once the pool is warm
			s.freeUOps = append(s.freeUOps, u)
		}
	}
}

//smtfetch:hotpath
func (s *Sim) commitBranch(t int, u *pipeline.UOp) {
	s.fe.CommitBranch(t, &u.Instruction, u.Info)
	if u.BrKind == isa.CondBranch {
		s.st.CondBranches++
		s.st.PerThread[t].CondBranches++
	}
	if u.Info == nil {
		return
	}
	switch u.Info.Resolve {
	case ftq.ResolveExecute:
		if u.BrKind == isa.CondBranch {
			s.st.CondMispredicts++
			s.st.PerThread[t].CondMispredicts++
		}
	case ftq.ResolveDecode:
		s.st.TargetMisfetches++
	}
	if u.Info.StreamPredicted {
		s.st.StreamPredictions++
		if u.Info.Resolve != ftq.ResolveNone {
			s.st.StreamMisses++
		}
	}
	if u.Info.UsedRAS {
		s.st.RASPops++
		if u.Info.Resolve != ftq.ResolveNone {
			s.st.RASMispredicts++
		}
	}
}

// releaseRequest drops the uop's reference on the pooled fetch request
// carrying its branch metadata. After this, u.Info must never be read
// again: the request may be recycled into a different block.
//
//smtfetch:hotpath
func (s *Sim) releaseRequest(u *pipeline.UOp) {
	if u.Req != nil {
		u.Req.Release()
		u.Req = nil
		u.Info = nil
	}
}

//smtfetch:hotpath
func (s *Sim) releaseReg(u *pipeline.UOp) {
	if !u.HasDest || !u.Dispatched {
		return
	}
	if u.Class == isa.FPOp {
		s.fpRegs.Release()
	} else {
		s.intRegs.Release()
	}
}

// ------------------------------------------------------------- writeback

//smtfetch:hotpath
func (s *Sim) writeback() {
	out := s.execList[:0]
	for _, u := range s.execList {
		// Squashed uops were unaccounted at recovery; flushed ones at the
		// flush event. Both just drop out of the list here.
		if u.Squashed || u.Flushed {
			continue
		}
		if u.ReadyAt > s.now {
			//smtfetch:allowalloc in-place compaction: out aliases execList[:0], so append never exceeds the existing capacity
			out = append(out, u)
			continue
		}
		u.Done = true
		// Completion resolves the uop for the policy signals: a finished
		// branch is no longer unresolved, a finished load's miss is no
		// longer outstanding.
		ts := &s.threads[u.Thread]
		if u.InBRCount {
			u.InBRCount = false
			ts.brcount--
		}
		if u.DMiss {
			u.DMiss = false
			ts.dmisses--
		}
		if u.LongMiss {
			u.LongMiss = false
			ts.longLoads--
		}
		if u.Info != nil && u.Info.Resolve == ftq.ResolveExecute && !u.Ghost && !u.Recovered {
			u.Recovered = true
			s.recover(u, s.cfg.MispredictRedirectPenalty)
		}
	}
	for i := len(out); i < len(s.execList); i++ {
		s.execList[i] = nil
	}
	s.execList = out
}

// decodeResolve fires misfetch recoveries for branches whose wrongness is
// detectable at decode.
//
//smtfetch:hotpath
func (s *Sim) decodeResolve() {
	out := s.pendingDecode[:0]
	for _, u := range s.pendingDecode {
		if u.Squashed || u.Flushed || u.Recovered {
			continue
		}
		if u.DecodeAt > s.now {
			//smtfetch:allowalloc in-place compaction: out aliases pendingDecode[:0], so append never exceeds the existing capacity
			out = append(out, u)
			continue
		}
		u.Recovered = true
		s.recover(u, s.cfg.MisfetchPenalty)
	}
	for i := len(out); i < len(s.pendingDecode); i++ {
		s.pendingDecode[i] = nil
	}
	s.pendingDecode = out
}

// ---------------------------------------------------------------- issue

//smtfetch:hotpath
func (s *Sim) issue() {
	s.inFlightData = s.hier.InFlightData(s.now)
	for kind := 0; kind < pipeline.NumQueues; kind++ {
		q := s.iqs[kind]
		//smtfetch:allowalloc non-escaping closure: Scan calls it inline and does not retain it (escape gate verifies)
		q.Scan(func(u *pipeline.UOp) bool {
			if !s.depsReady(u) {
				return false
			}
			pool := s.poolFor(u.Class)
			if u.Class == isa.Load && s.inFlightData >= s.mshrCap {
				return false
			}
			if !pool.TryIssue(s.now) {
				return false
			}
			s.startExec(u)
			return true
		})
	}
}

//smtfetch:hotpath
func (s *Sim) poolFor(c isa.Class) *pipeline.FUPool {
	switch c {
	case isa.Load, isa.Store:
		return s.lsFUs
	case isa.FPOp:
		return s.fpFUs
	default:
		return s.intFUs
	}
}

//smtfetch:hotpath
func (s *Sim) startExec(u *pipeline.UOp) {
	u.Issued = true
	ts := &s.threads[u.Thread]
	if u.InICount {
		u.InICount = false
		ts.icount--
	}
	ready := s.now + uint64(s.lat[u.Class])
	switch u.Class {
	case isa.Load:
		res := s.hier.Data(s.now, u.EffAddr)
		s.st.DCacheAccesses++
		if res.TLBMiss {
			s.st.DTLBMisses++
		}
		if res.L1Miss {
			s.st.DCacheMisses++
			u.DMiss = true
			ts.dmisses++
			if !res.Merged {
				// A merged access rides an already-counted L2 request
				// and occupies no new MSHR.
				s.inFlightData++
				s.st.L2Accesses++
				if res.L2Miss {
					s.st.L2Misses++
				}
			}
		}
		// A completion at least a full memory latency out means the load
		// went to main memory (directly or merged onto an in-flight L2
		// miss): the long-latency signal the STALL and FLUSH policies
		// gate on.
		if res.Ready >= s.now+s.longLatThreshold {
			u.LongMiss = true
			ts.longLoads++
			if s.flushPolicy && (ts.pendingFlush == nil || u.GSeq < ts.pendingFlush.GSeq) {
				ts.pendingFlush = u
			}
		}
		ready = res.Ready
	case isa.Store:
		// Stores update cache state but retire through the store
		// buffer without stalling the pipeline.
		res := s.hier.Data(s.now, u.EffAddr)
		s.st.DCacheAccesses++
		if res.L1Miss {
			s.st.DCacheMisses++
			if !res.Merged {
				s.st.L2Accesses++
				if res.L2Miss {
					s.st.L2Misses++
				}
			}
		}
		ready = s.now + 1
	}
	u.ReadyAt = ready
	//smtfetch:allowalloc execList capacity converges to the in-flight (ROB) bound; growth stops once the pool is warm
	s.execList = append(s.execList, u)
}

// depsReady reports whether u's register inputs are available at s.now.
// Readiness is sticky: a producer that is done, squashed, recycled, or out
// of the window can never become unready again (PathSeq is monotonic, so a
// ring slot never reverts to the producer). Each satisfied dependence is
// therefore cleared to 0, so queued uops re-polled every cycle pay the
// ring lookup at most once per input.
//
//smtfetch:hotpath
func (s *Sim) depsReady(u *pipeline.UOp) bool {
	if u.Dep1 != 0 {
		if !s.depReady(u, u.Dep1) {
			return false
		}
		u.Dep1 = 0
	}
	if u.Dep2 != 0 {
		if !s.depReady(u, u.Dep2) {
			return false
		}
		u.Dep2 = 0
	}
	return true
}

//smtfetch:hotpath
func (s *Sim) depReady(u *pipeline.UOp, d uint16) bool {
	if d == 0 || uint64(d) > u.PathSeq {
		return true
	}
	want := u.PathSeq - uint64(d)
	p := s.threads[u.Thread].ring[want&((1<<ringBits)-1)]
	if p == nil || p.PathSeq != want || p.Thread != u.Thread || p.Ghost != u.Ghost || p.Squashed {
		// Producer already left the window, was recycled into a
		// different uop, or belongs to a stale path: its value is
		// architecturally available. (PathSeq is monotonic per thread
		// and per path kind, so a recycled uop can never impersonate
		// the producer.)
		return true
	}
	if !p.HasDest {
		return true
	}
	return p.Done && p.ReadyAt <= s.now
}

// -------------------------------------------------------------- dispatch

//smtfetch:hotpath
func (s *Sim) dispatch() {
	budget := s.cfg.DecodeWidth
	for budget > 0 && s.frontPipe.Len() > 0 {
		u := s.frontPipe.At(0)
		if u.Squashed {
			s.frontPipe.PopHead()
			continue
		}
		if s.now < u.EnterFront+uint64(s.frontLatency) {
			break
		}
		kind := pipeline.QueueKind(u.Class)
		if s.rob.Full() {
			s.st.StallROBFull++
			break
		}
		if s.iqs[kind].Full() {
			s.st.StallIQFull++
			break
		}
		if u.HasDest {
			rf := s.intRegs
			if u.Class == isa.FPOp {
				rf = s.fpRegs
			}
			if rf.Free() <= 0 {
				s.st.StallRegsFull++
				break
			}
			rf.Alloc()
		}
		s.rob.Dispatch(u)
		s.iqs[kind].Add(u)
		u.Dispatched = true
		s.frontPipe.PopHead()
		budget--
	}
}

// decodeAdvance moves uops from the fetch buffer into the decode/rename
// pipe, stopping when the pipe is full. That is the front end's
// backpressure: a stalled dispatch fills the pipe, a full pipe leaves
// uops in the fetch buffer, and fetchStage stalls once the buffer is full.
//
//smtfetch:hotpath
func (s *Sim) decodeAdvance() {
	budget := s.cfg.DecodeWidth
	for budget > 0 && s.fetchBuf.Len() > 0 && !s.frontPipe.Full() {
		u := s.fetchBuf.PopHead()
		if u.Squashed {
			continue
		}
		u.EnterFront = s.now
		u.DecodeAt = s.now + uint64(s.cfg.DecodeStages)
		if u.Info != nil && u.Info.Resolve == ftq.ResolveDecode && !u.Ghost {
			//smtfetch:allowalloc pendingDecode capacity converges to the decode-pipe bound; growth stops once the pool is warm
			s.pendingDecode = append(s.pendingDecode, u)
		}
		s.frontPipe.Push(u)
		budget--
	}
}

// ------------------------------------------------------------ fetch stage

//smtfetch:hotpath
func (s *Sim) fetchStage() {
	room := s.cfg.FetchBufferSize - s.fetchBuf.Len()
	if room <= 0 {
		s.st.FetchBufStalls++
		return
	}
	width := s.cfg.FetchPolicy.Width
	if room < width {
		width = room
	}

	order := fetch.PrioritizeInto(s.orderBuf, s.cfg.FetchPolicy.Policy, s.policyKeys(), s.fetchEligible, s.now, s.cfg.FetchPolicy.Threads)
	s.orderBuf = order[:0]
	// Count an attempted fetch cycle also when every eligible thread is
	// blocked on the I-cache (the fetch unit had requests but delivered
	// nothing).
	attempted := len(order) > 0
	if !attempted {
		for t := 0; t < s.nthreads; t++ {
			if s.fe.Queue(t).Len() > 0 && s.threads[t].icacheBlockedUntil > s.now {
				attempted = true
				break
			}
		}
	}
	if !attempted {
		return
	}

	delivered := 0
	s.usedBanks = 0
	for _, t := range order {
		if delivered >= width {
			break
		}
		n := s.fetchFromThread(t, width-delivered)
		delivered += n
	}
	s.st.FetchCycles++
	if delivered < len(s.st.FetchHist) {
		s.st.FetchHist[delivered]++
	} else {
		s.st.FetchHist[len(s.st.FetchHist)-1]++
	}
	s.st.Fetched += uint64(delivered)
}

// fetchFromThread delivers up to budget instructions from thread t's FTQ
// head request, honouring cache-line supply limits and bank conflicts
// (tracked in the s.usedBanks bitmask). It returns the number of
// instructions delivered.
//
//smtfetch:hotpath
func (s *Sim) fetchFromThread(t, budget int) int {
	ts := &s.threads[t]
	if ts.replayPos < len(ts.replay) {
		// A FLUSH-policy replay in progress supplies the fetch unit
		// before any new block does: the flushed uops are older than
		// everything still queued in the FTQ.
		return s.replayFromThread(t, budget)
	}
	q := s.fe.Queue(t)
	req := q.Head()
	if req == nil {
		return 0
	}
	pc := req.NextPC()
	lineBytes := isa.Addr(s.cfg.L1I.LineBytes)
	line1 := pc &^ (lineBytes - 1)

	// A thread reads at most two consecutive lines per cycle (the
	// interleaved banks supply an aligned pair).
	span := req.Remaining()
	if span > budget {
		span = budget
	}
	endLimit := line1 + 2*lineBytes
	if end := pc + isa.Addr(span*isa.InstrSize); end > endLimit {
		span = int((endLimit - pc) / isa.InstrSize)
	}
	if span <= 0 {
		return 0
	}

	// Bank conflict check against lines already read this cycle.
	b1 := uint64(1) << uint(s.hier.L1I.Bank(line1))
	lastAddr := pc + isa.Addr((span-1)*isa.InstrSize)
	line2 := lastAddr &^ (lineBytes - 1)
	b2 := uint64(0)
	if line2 != line1 {
		b2 = uint64(1) << uint(s.hier.L1I.Bank(line2))
	}
	if s.usedBanks&(b1|b2) != 0 {
		return 0
	}

	// I-cache (and ITLB) access for the first line.
	s.st.ICacheAccesses++
	res := s.hier.Instr(s.now, line1)
	if res.TLBMiss {
		s.st.ITLBMisses++
	}
	if res.L1Miss {
		s.st.ICacheMisses++
		if !res.Merged {
			s.st.L2Accesses++
			if res.L2Miss {
				s.st.L2Misses++
			}
		}
		ts.icacheBlockedUntil = res.Ready
		s.st.PerThread[t].ICacheMissStall += res.Ready - s.now
		return 0
	}
	s.usedBanks |= b1
	if line2 != line1 {
		s.st.ICacheAccesses++
		res2 := s.hier.Instr(s.now, line2)
		if res2.L1Miss {
			s.st.ICacheMisses++
			if !res2.Merged {
				s.st.L2Accesses++
				if res2.L2Miss {
					s.st.L2Misses++
				}
			}
			// Deliver only the first line's portion; the thread
			// blocks until the second line arrives.
			span = int((line2 - pc) / isa.InstrSize)
			ts.icacheBlockedUntil = res2.Ready
			s.st.PerThread[t].ICacheMissStall += res2.Ready - s.now
			if span <= 0 {
				return 0
			}
		} else {
			s.usedBanks |= b2
		}
	}

	// Deliver span instructions into the fetch buffer.
	for i := 0; i < span; i++ {
		idx := req.Consumed + i
		s.gseq++
		u := s.allocUOp()
		u.Instruction = *req.Instr(idx)
		u.SavedDep1, u.SavedDep2 = u.Dep1, u.Dep2
		if bi := req.Branch(idx); bi != nil {
			// The uop pins the pooled request alive for as long as it
			// may read or train from the branch metadata.
			u.Info = bi
			u.Req = req
			req.Retain()
		}
		u.Thread = t
		u.Ghost = req.WrongPath
		u.GSeq = s.gseq
		s.deliver(ts, t, u)
	}
	req.Consumed += span
	if req.Remaining() == 0 {
		q.PopHead()
	}
	return span
}

// deliver finishes a uop's delivery into the fetch buffer — the
// bookkeeping shared by first fetch and FLUSH replay: fetch stamp, policy
// signal counts, dependence-ring registration, and the buffer push.
//
//smtfetch:hotpath
func (s *Sim) deliver(ts *threadState, t int, u *pipeline.UOp) {
	u.FetchedAt = s.now
	u.InICount = true
	ts.icount++
	if u.IsBranch() {
		u.InBRCount = true
		ts.brcount++
	}
	ts.ring[u.PathSeq&((1<<ringBits)-1)] = u
	s.fetchBuf.Push(u)
	s.st.PerThread[t].Fetched++
}

// replayFromThread redelivers up to budget flushed uops from thread t's
// replay queue into the fetch buffer, oldest first. Redelivered uops keep
// their identity (GSeq, PathSeq, fetch-request reference, ghost flag) but
// restart from the fetch stage: they flow through decode/rename and
// dispatch again, which is the FLUSH policy's refetch cost.
//
//smtfetch:hotpath
func (s *Sim) replayFromThread(t, budget int) int {
	ts := &s.threads[t]
	n := 0
	for ts.replayPos < len(ts.replay) && n < budget {
		u := ts.replay[ts.replayPos]
		ts.replay[ts.replayPos] = nil
		ts.replayPos++
		u.Flushed = false
		u.Dispatched = false
		u.Issued = false
		u.Done = false
		u.ReadyAt = 0
		// Restore the dependence distances the issue stage memoized away:
		// a producer flushed alongside this uop re-executes, and the
		// consumer must wait for it again.
		u.Dep1, u.Dep2 = u.SavedDep1, u.SavedDep2
		s.deliver(ts, t, u)
		s.st.Replayed++
		s.st.PerThread[t].Replayed++
		n++
	}
	if ts.replayPos == len(ts.replay) {
		ts.replay = ts.replay[:0]
		ts.replayPos = 0
	}
	return n
}

// ------------------------------------------------------------ flush stage

// flushStage performs the FLUSH policy's deallocation: for every thread on
// which issue detected a long-latency load this cycle, the load's younger
// in-flight uops are removed from the ROB, issue queues, and front-end
// buffers into the thread's replay queue, releasing their registers and
// ROB/queue slots to the other threads for the duration of the miss
// (Tullsen & Brown, MICRO 2001). The thread's fetch is already gated by
// the long-load signal; once the load completes, the replay queue drains
// back through the fetch buffer.
//
//smtfetch:hotpath
func (s *Sim) flushStage() {
	for t := range s.threads {
		ts := &s.threads[t]
		u := ts.pendingFlush
		if u == nil {
			continue
		}
		ts.pendingFlush = nil
		if u.Squashed || u.Flushed || u.Done {
			continue
		}
		s.flushThread(t, u)
	}
}

// flushThread moves every thread-t uop younger than u out of the pipeline
// into the replay queue, in program order. Unlike recovery this touches no
// front-end state: the FTQ, predictor histories, and trace cursor stay
// put, and the flushed uops keep their fetch-request references, so replay
// needs no re-prediction.
//
//smtfetch:hotpath
func (s *Sim) flushThread(t int, u *pipeline.UOp) {
	ts := &s.threads[t]
	batch := s.rob.FlushYounger(t, u.GSeq, s.flushBatch[:0])
	// FlushYounger pops the ROB tail youngest-first; reverse to program
	// order.
	for i, j := 0, len(batch)-1; i < j; i, j = i+1, j-1 {
		batch[i], batch[j] = batch[j], batch[i]
	}
	for _, q := range s.iqs {
		q.DropSquashed() // also drops entries just marked flushed
	}
	// Front-end buffers hold only uops younger than anything in the ROB,
	// and fetchBuf only uops younger than frontPipe's, so appending keeps
	// the batch in program order.
	batch = s.flushRing(s.frontPipe, t, u.GSeq, batch)
	batch = s.flushRing(s.fetchBuf, t, u.GSeq, batch)
	if len(batch) == 0 {
		s.flushBatch = batch
		return
	}
	for _, v := range batch {
		s.releaseReg(v)
		s.dropSignals(ts, v)
		s.st.FlushedUOps++
	}
	s.st.Flushes++
	// Merge ahead of any replay remainder from an earlier flush: a new
	// flush point is always older than previously flushed uops.
	if rem := ts.replay[ts.replayPos:]; len(rem) > 0 {
		//smtfetch:allowalloc replay/flushTail are pre-sized to the in-flight bound at construction; appends never exceed it
		s.flushTail = append(s.flushTail[:0], rem...)
		//smtfetch:allowalloc replay/flushTail are pre-sized to the in-flight bound at construction; appends never exceed it
		ts.replay = append(ts.replay[:0], batch...)
		//smtfetch:allowalloc replay/flushTail are pre-sized to the in-flight bound at construction; appends never exceed it
		ts.replay = append(ts.replay, s.flushTail...)
	} else {
		//smtfetch:allowalloc replay/flushTail are pre-sized to the in-flight bound at construction; appends never exceed it
		ts.replay = append(ts.replay[:0], batch...)
	}
	ts.replayPos = 0
	s.flushBatch = batch[:0]
}

// flushRing removes thread t's uops younger than gseq from a front-end
// ring into dst, marking them flushed. Execution-side lists (execList,
// pendingDecode) drop flushed entries lazily on their next scan, exactly
// like squashed ones; redelivery cannot race that scan because the
// long-load gate keeps the thread unfetchable for at least a full memory
// latency.
//
//smtfetch:hotpath
func (s *Sim) flushRing(r *pipeline.UOpRing, t int, gseq uint64, dst []*pipeline.UOp) []*pipeline.UOp {
	//smtfetch:allowalloc non-escaping closure: Filter calls it inline and does not retain it (escape gate verifies)
	r.Filter(func(v *pipeline.UOp) bool {
		if v.Thread == t && v.GSeq > gseq && !v.Squashed && !v.Flushed {
			v.Flushed = true
			dst = append(dst, v)
			return false
		}
		return true
	})
	return dst
}

// ---------------------------------------------------------- predict stage

//smtfetch:hotpath
func (s *Sim) predictStage() {
	if s.drainMode {
		return
	}
	order := fetch.PrioritizeInto(s.orderBuf, s.cfg.FetchPolicy.Policy, s.policyKeys(), s.predictEligible, s.now, s.cfg.FetchPolicy.Threads)
	s.orderBuf = order[:0]
	for _, t := range order {
		if n := s.fe.Predict(t); n > 0 {
			s.st.FetchBlocks++
			s.st.FetchBlockLenSum += uint64(n)
		}
	}
}

// -------------------------------------------------------------- recovery

// recover squashes everything younger than u on u's thread and redirects
// the front-end. Squashed uops go to limbo, not straight to the free list:
// execList and pendingDecode drop them lazily next cycle.
//
//smtfetch:hotpath
func (s *Sim) recover(u *pipeline.UOp, penalty int) {
	t := u.Thread
	ts := &s.threads[t]

	// Back end: ROB tail (covers issue queues and exec list via the
	// Squashed flag).
	start := len(s.limboCur)
	s.limboCur = s.rob.SquashYounger(t, u.GSeq, s.limboCur)
	for _, v := range s.limboCur[start:] {
		s.releaseReg(v)
		s.releaseRequest(v)
		s.dropSignals(ts, v)
		s.st.Squashed++
		s.st.PerThread[t].Squashed++
	}
	for _, q := range s.iqs {
		q.DropSquashed()
	}
	// Front end buffers.
	s.squashRing(s.fetchBuf, t, u.GSeq, ts)
	s.squashRing(s.frontPipe, t, u.GSeq, ts)
	// FLUSH-policy replay uops live outside every pipeline structure, so
	// recovery must squash them explicitly or they would be redelivered on
	// a dead path. They are always younger than the recovering uop: the
	// recovering uop is still in the pipeline, and a flush removed
	// everything younger than a load that is itself older than the whole
	// replay window.
	if ts.replayPos < len(ts.replay) {
		for _, v := range ts.replay[ts.replayPos:] {
			if v.GSeq <= u.GSeq {
				panic("core: replay entry older than recovery point")
			}
			v.Squashed = true
			v.Flushed = false
			s.releaseRequest(v)
			s.dropSignals(ts, v)
			s.st.Squashed++
			s.st.PerThread[t].Squashed++
			//smtfetch:allowalloc limbo lists converge to the in-flight uop bound; growth stops once the pool is warm
			s.limboCur = append(s.limboCur, v)
		}
	}
	ts.replay = ts.replay[:0]
	ts.replayPos = 0

	s.fe.Recover(t, u.Info, &u.Instruction, u.NextPC())
	ts.predictStallUntil = s.now + uint64(penalty)
	if ts.icacheBlockedUntil > s.now {
		// A wrong-path I-miss no longer blocks the thread.
		ts.icacheBlockedUntil = s.now
	}
}

// squashRing removes thread t's uops younger than gseq from a front-end
// ring, marking them squashed and quarantining them in limbo.
//
//smtfetch:hotpath
func (s *Sim) squashRing(r *pipeline.UOpRing, t int, gseq uint64, ts *threadState) {
	//smtfetch:allowalloc non-escaping closure: Filter calls it inline and does not retain it (escape gate verifies)
	r.Filter(func(v *pipeline.UOp) bool {
		if v.Thread == t && v.GSeq > gseq && !v.Squashed {
			v.Squashed = true
			s.releaseRequest(v)
			s.dropSignals(ts, v)
			s.st.Squashed++
			s.st.PerThread[t].Squashed++
			s.limboCur = append(s.limboCur, v)
			return false
		}
		return true
	})
}
