// Package stats collects simulation statistics: fetch and commit
// throughput, per-thread breakdowns, branch predictor accuracy, cache
// behaviour, and the fetch-width distribution histograms the paper quotes
// in the text of Sections 3.1 and 3.2.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Stats accumulates counters over a simulation run.
type Stats struct {
	Cycles uint64

	// FetchCycles counts cycles in which the fetch unit delivered at
	// least one instruction ("fetch requests" in the paper's IPFC).
	FetchCycles uint64
	// Fetched counts instructions delivered by the fetch unit
	// (wrong-path included; this is fetch throughput, not goodput).
	Fetched uint64
	// FetchHist[n] counts fetch cycles that delivered exactly n
	// instructions; index 0 counts active-but-empty fetch cycles (all
	// selected threads stalled on I-cache misses or empty FTQs while work
	// remained).
	FetchHist []uint64

	// Committed counts architecturally retired instructions.
	Committed uint64
	// Squashed counts instructions removed by misprediction recovery.
	Squashed uint64
	// Flushes counts FLUSH-policy events (one per long-latency load that
	// triggered a thread flush); FlushedUOps counts the uops those events
	// removed from the pipeline, and Replayed counts redeliveries of
	// flushed uops into the fetch buffer after the load returned. All
	// three stay zero under every other policy.
	Flushes     uint64
	FlushedUOps uint64
	Replayed    uint64

	PerThread []ThreadStats

	// Branch predictor behaviour (committed-path branches only).
	CondBranches    uint64
	CondMispredicts uint64
	// TargetMisfetches counts BTB/FTB/stream target-structure misses that
	// caused a front-end redirect at decode.
	TargetMisfetches uint64
	// StreamPredictions / StreamMisses describe the stream predictor's
	// next-stream accuracy (stream engine only).
	StreamPredictions uint64
	StreamMisses      uint64
	// RASPops / RASMispredicts count return-address-stack behaviour.
	RASPops        uint64
	RASMispredicts uint64

	// FetchBlockLenSum / FetchBlocks give the average fetch-block length
	// produced by the prediction stage.
	FetchBlockLenSum uint64
	FetchBlocks      uint64

	// Cache behaviour.
	ICacheAccesses uint64
	ICacheMisses   uint64
	DCacheAccesses uint64
	DCacheMisses   uint64
	L2Accesses     uint64
	L2Misses       uint64
	ITLBMisses     uint64
	DTLBMisses     uint64

	// Resource pressure: cycles in which rename stalled for lack of each
	// shared resource (diagnoses the Fig. 7 clogging effect).
	StallROBFull   uint64
	StallIQFull    uint64
	StallRegsFull  uint64
	FetchBufStalls uint64
}

// ThreadStats is the per-thread slice of the counters.
type ThreadStats struct {
	Fetched         uint64
	Committed       uint64
	Squashed        uint64
	CondBranches    uint64
	CondMispredicts uint64
	ICacheMissStall uint64 // cycles the thread was blocked on an I-cache miss
	// Replayed counts the thread's FLUSH redeliveries; each is also
	// counted in Fetched a second time.
	Replayed uint64
}

// New returns a Stats sized for nthreads and the given maximum per-cycle
// fetch width.
func New(nthreads, maxWidth int) *Stats {
	return &Stats{
		FetchHist: make([]uint64, maxWidth+1),
		PerThread: make([]ThreadStats, nthreads),
	}
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// IPFC returns instructions per fetch cycle: the average number of
// instructions the fetch unit provided on every cycle it was active.
func (s *Stats) IPFC() float64 {
	if s.FetchCycles == 0 {
		return 0
	}
	return float64(s.Fetched) / float64(s.FetchCycles)
}

// CondAccuracy returns the committed-path conditional branch prediction
// accuracy in [0,1].
func (s *Stats) CondAccuracy() float64 {
	if s.CondBranches == 0 {
		return 1
	}
	return 1 - float64(s.CondMispredicts)/float64(s.CondBranches)
}

// AvgFetchBlockLen returns the mean fetch-block length produced by the
// prediction stage.
func (s *Stats) AvgFetchBlockLen() float64 {
	if s.FetchBlocks == 0 {
		return 0
	}
	return float64(s.FetchBlockLenSum) / float64(s.FetchBlocks)
}

// FracFetchCyclesAtLeast returns the fraction of fetch cycles that supplied
// at least n instructions. This reproduces the paper's in-text claims such
// as "gshare+BTB provides more than 4 instructions only 60% of the fetch
// cycles".
func (s *Stats) FracFetchCyclesAtLeast(n int) float64 {
	if s.FetchCycles == 0 {
		return 0
	}
	var c uint64
	for i := n; i < len(s.FetchHist); i++ {
		c += s.FetchHist[i]
	}
	return float64(c) / float64(s.FetchCycles)
}

// ICacheMissRate returns I-cache misses per access.
func (s *Stats) ICacheMissRate() float64 { return rate(s.ICacheMisses, s.ICacheAccesses) }

// DCacheMissRate returns D-cache misses per access.
func (s *Stats) DCacheMissRate() float64 { return rate(s.DCacheMisses, s.DCacheAccesses) }

// L2MissRate returns L2 misses per access.
func (s *Stats) L2MissRate() float64 { return rate(s.L2Misses, s.L2Accesses) }

func rate(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Snapshot is a flat, JSON-serializable summary of a run: the raw counters
// an experiment result needs, plus the derived rates the paper quotes.
// Experiment sweep output embeds one Snapshot per cell.
type Snapshot struct {
	Cycles      uint64 `json:"cycles"`
	FetchCycles uint64 `json:"fetch_cycles"`
	Fetched     uint64 `json:"fetched"`
	Committed   uint64 `json:"committed"`
	Squashed    uint64 `json:"squashed"`
	// The FLUSH-policy counters are omitted when zero so every other
	// policy's JSON stays byte-identical to pre-FLUSH baselines.
	Flushes     uint64 `json:"flushes,omitempty"`
	FlushedUOps uint64 `json:"flushed_uops,omitempty"`
	Replayed    uint64 `json:"replayed,omitempty"`

	IPC              float64 `json:"ipc"`
	IPFC             float64 `json:"ipfc"`
	AvgFetchBlockLen float64 `json:"avg_fetch_block_len"`

	CondBranches      uint64  `json:"cond_branches"`
	CondMispredicts   uint64  `json:"cond_mispredicts"`
	CondAccuracy      float64 `json:"cond_accuracy"`
	TargetMisfetches  uint64  `json:"target_misfetches"`
	StreamPredictions uint64  `json:"stream_predictions,omitempty"`
	StreamMisses      uint64  `json:"stream_misses,omitempty"`
	RASPops           uint64  `json:"ras_pops"`
	RASMispredicts    uint64  `json:"ras_mispredicts"`

	ICacheMissRate float64 `json:"icache_miss_rate"`
	DCacheMissRate float64 `json:"dcache_miss_rate"`
	L2MissRate     float64 `json:"l2_miss_rate"`
	ITLBMisses     uint64  `json:"itlb_misses"`
	DTLBMisses     uint64  `json:"dtlb_misses"`

	StallROBFull   uint64 `json:"stall_rob_full"`
	StallIQFull    uint64 `json:"stall_iq_full"`
	StallRegsFull  uint64 `json:"stall_regs_full"`
	FetchBufStalls uint64 `json:"fetch_buf_stalls"`

	PerThread []ThreadSnapshot `json:"per_thread"`
}

// ThreadSnapshot is the per-thread slice of a Snapshot.
type ThreadSnapshot struct {
	Fetched         uint64  `json:"fetched"`
	Committed       uint64  `json:"committed"`
	Squashed        uint64  `json:"squashed"`
	CondBranches    uint64  `json:"cond_branches"`
	CondMispredicts uint64  `json:"cond_mispredicts"`
	CondAccuracy    float64 `json:"cond_accuracy"`
}

// Snapshot freezes the current counters into a serializable value.
func (s *Stats) Snapshot() Snapshot {
	snap := Snapshot{
		Cycles:      s.Cycles,
		FetchCycles: s.FetchCycles,
		Fetched:     s.Fetched,
		Committed:   s.Committed,
		Squashed:    s.Squashed,
		Flushes:     s.Flushes,
		FlushedUOps: s.FlushedUOps,
		Replayed:    s.Replayed,

		IPC:              s.IPC(),
		IPFC:             s.IPFC(),
		AvgFetchBlockLen: s.AvgFetchBlockLen(),

		CondBranches:      s.CondBranches,
		CondMispredicts:   s.CondMispredicts,
		CondAccuracy:      s.CondAccuracy(),
		TargetMisfetches:  s.TargetMisfetches,
		StreamPredictions: s.StreamPredictions,
		StreamMisses:      s.StreamMisses,
		RASPops:           s.RASPops,
		RASMispredicts:    s.RASMispredicts,

		ICacheMissRate: s.ICacheMissRate(),
		DCacheMissRate: s.DCacheMissRate(),
		L2MissRate:     s.L2MissRate(),
		ITLBMisses:     s.ITLBMisses,
		DTLBMisses:     s.DTLBMisses,

		StallROBFull:   s.StallROBFull,
		StallIQFull:    s.StallIQFull,
		StallRegsFull:  s.StallRegsFull,
		FetchBufStalls: s.FetchBufStalls,

		PerThread: make([]ThreadSnapshot, len(s.PerThread)),
	}
	for i := range s.PerThread {
		t := &s.PerThread[i]
		snap.PerThread[i] = ThreadSnapshot{
			Fetched:         t.Fetched,
			Committed:       t.Committed,
			Squashed:        t.Squashed,
			CondBranches:    t.CondBranches,
			CondMispredicts: t.CondMispredicts,
			CondAccuracy:    1 - rate(t.CondMispredicts, t.CondBranches),
		}
	}
	return snap
}

// String renders a human-readable multi-line summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d committed=%d IPC=%.3f IPFC=%.3f\n",
		s.Cycles, s.Committed, s.IPC(), s.IPFC())
	fmt.Fprintf(&b, "fetched=%d squashed=%d avgFetchBlock=%.2f\n",
		s.Fetched, s.Squashed, s.AvgFetchBlockLen())
	fmt.Fprintf(&b, "condBr=%d mispred=%d acc=%.4f misfetch=%d\n",
		s.CondBranches, s.CondMispredicts, s.CondAccuracy(), s.TargetMisfetches)
	fmt.Fprintf(&b, "icache miss=%.4f dcache miss=%.4f l2 miss=%.4f\n",
		s.ICacheMissRate(), s.DCacheMissRate(), s.L2MissRate())
	fmt.Fprintf(&b, "stalls: rob=%d iq=%d regs=%d fetchbuf=%d\n",
		s.StallROBFull, s.StallIQFull, s.StallRegsFull, s.FetchBufStalls)
	for i := range s.PerThread {
		t := &s.PerThread[i]
		fmt.Fprintf(&b, "  T%d: committed=%d fetched=%d squashed=%d acc=%.4f\n",
			i, t.Committed, t.Fetched, t.Squashed,
			1-rate(t.CondMispredicts, t.CondBranches))
	}
	return b.String()
}

// Histogram is a small utility for distribution summaries used by the
// program-model tests and cmd/progstat.
type Histogram struct {
	counts map[int]uint64
	total  uint64
	sum    float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]uint64)}
}

// Add records one observation of value v.
func (h *Histogram) Add(v int) {
	h.counts[v]++
	h.total++
	h.sum += float64(v)
}

// N returns the number of observations.
func (h *Histogram) N() uint64 { return h.total }

// Mean returns the mean observation, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Percentile returns the smallest value v such that at least p (in [0,1])
// of the observations are <= v. Empty histograms return 0.
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	keys := make([]int, 0, len(h.counts))
	//smtfetch:commutative keys are collected and sorted before use; iteration order cannot reach the result
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	need := uint64(math.Ceil(p * float64(h.total)))
	if need == 0 {
		need = 1
	}
	var acc uint64
	for _, k := range keys {
		acc += h.counts[k]
		if acc >= need {
			return k
		}
	}
	return keys[len(keys)-1]
}
