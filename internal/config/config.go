// Package config defines the simulated machine configuration. The defaults
// reproduce Table 3 of the paper ("Simulation parameters"); the experiment
// harness varies the fetch engine, the fetch policy (the full SMT
// fetch-policy family, see Policy), the threads-per-cycle count (1 / 2),
// and the fetch width (8 / 16).
package config

import (
	"fmt"
	"strconv"
	"strings"
)

// Engine selects the fetch-engine family (branch predictor + target
// structure) used by the decoupled front-end.
type Engine uint8

const (
	// GShareBTB is the baseline SMT front-end: gshare direction predictor
	// plus a classical branch target buffer. Fetch blocks end at the first
	// branch (one prediction per cycle => one basic block per request).
	GShareBTB Engine = iota
	// GSkewFTB is the enhanced front-end: gskew direction predictor plus a
	// fetch target buffer whose blocks embed never-taken branches.
	GSkewFTB
	// StreamFetch is the stream front-end: a two-level stream predictor
	// supplies whole instruction streams (taken-target to next taken
	// branch).
	StreamFetch
)

// String returns the name used in the paper's figures.
func (e Engine) String() string {
	switch e {
	case GShareBTB:
		return "gshare+BTB"
	case GSkewFTB:
		return "gskew+FTB"
	case StreamFetch:
		return "stream"
	default:
		return fmt.Sprintf("engine(%d)", uint8(e))
	}
}

// Engines lists all fetch engines in the order the paper plots them.
func Engines() []Engine { return []Engine{GShareBTB, GSkewFTB, StreamFetch} }

// ParseEngine resolves an engine name as printed by Engine.String. It also
// accepts the short aliases "gshare", "gskew", and "stream"
// (case-insensitive), so CLI flags read naturally.
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "gshare+btb", "gshare", "btb":
		return GShareBTB, nil
	case "gskew+ftb", "gskew", "ftb":
		return GSkewFTB, nil
	case "stream", "streamfetch":
		return StreamFetch, nil
	}
	return 0, fmt.Errorf("config: unknown engine %q (want one of %v)", s, Engines())
}

// Policy selects how the fetch policy prioritizes threads. ICount and
// RoundRobin are the policies the paper itself sweeps; the rest are the
// classic SMT fetch-policy family from the literature, implemented so the
// sweep grid can compare the paper's fetch engines under every policy.
type Policy uint8

const (
	// ICount prioritizes threads with the fewest instructions in the
	// pre-issue pipeline stages (Tullsen et al., ISCA 1996).
	ICount Policy = iota
	// RoundRobin rotates priority among runnable threads each cycle.
	RoundRobin
	// BRCount prioritizes threads with the fewest unresolved branches in
	// flight, throttling deep speculation (Tullsen et al., ISCA 1996).
	BRCount
	// MissCount prioritizes threads with the fewest outstanding D-cache
	// misses (Tullsen et al., ISCA 1996).
	MissCount
	// IQPosn penalizes threads whose micro-ops sit nearest the heads of
	// the issue queues — the threads most likely to clog them (Tullsen et
	// al., ISCA 1996).
	IQPosn
	// Stall is ICount plus a gate: a thread with an outstanding
	// long-latency (L2-miss) load stops fetching until the load returns
	// (Tullsen & Brown, MICRO 2001).
	Stall
	// Flush is Stall plus recovery: when the long-latency load is
	// detected, the thread's younger in-flight micro-ops are flushed so
	// their ROB/issue-queue/register resources go to other threads, and
	// are refetched once the load returns (Tullsen & Brown, MICRO 2001).
	Flush
)

// String names the policy as spelled in the CLI and sweep JSON.
func (p Policy) String() string {
	switch p {
	case ICount:
		return "ICOUNT"
	case RoundRobin:
		return "RR"
	case BRCount:
		return "BRCOUNT"
	case MissCount:
		return "MISSCOUNT"
	case IQPosn:
		return "IQPOSN"
	case Stall:
		return "STALL"
	case Flush:
		return "FLUSH"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Policies lists every implemented thread-selection policy: the two the
// paper sweeps first, then the rest of the literature family.
func Policies() []Policy {
	return []Policy{ICount, RoundRobin, BRCount, MissCount, IQPosn, Stall, Flush}
}

// ParsePolicy resolves a policy name as printed by Policy.String
// (case-insensitive). "ROUNDROBIN" is accepted as an alias for "RR".
func ParsePolicy(s string) (Policy, error) {
	name := strings.ToUpper(strings.TrimSpace(s))
	if name == "ROUNDROBIN" {
		return RoundRobin, nil
	}
	for _, p := range Policies() {
		if name == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("config: unknown policy %q (want one of %v)", s, Policies())
}

// FetchPolicy is the paper's POLICY.T.W notation: up to Width instructions
// total from up to Threads threads each cycle (e.g. ICOUNT.2.8).
type FetchPolicy struct {
	Policy  Policy
	Threads int // 1 or 2
	Width   int // 8 or 16
}

// String renders e.g. "ICOUNT.2.8".
func (fp FetchPolicy) String() string {
	return fmt.Sprintf("%s.%d.%d", fp.Policy, fp.Threads, fp.Width)
}

// Common fetch policies studied in the paper.
var (
	ICount18  = FetchPolicy{ICount, 1, 8}
	ICount28  = FetchPolicy{ICount, 2, 8}
	ICount116 = FetchPolicy{ICount, 1, 16}
	ICount216 = FetchPolicy{ICount, 2, 16}

	RR18  = FetchPolicy{RoundRobin, 1, 8}
	RR28  = FetchPolicy{RoundRobin, 2, 8}
	RR116 = FetchPolicy{RoundRobin, 1, 16}
	RR216 = FetchPolicy{RoundRobin, 2, 16}
)

// FetchPolicies lists the four ICOUNT.T.W configurations the paper's
// figures evaluate, in paper order. This is the default policy axis of an
// experiment sweep.
func FetchPolicies() []FetchPolicy {
	return []FetchPolicy{ICount18, ICount28, ICount116, ICount216}
}

// AllFetchPolicies crosses every Policy with the paper's four T.W shapes
// (1.8, 2.8, 1.16, 2.16), ICOUNT variants first to preserve paper order.
func AllFetchPolicies() []FetchPolicy {
	shapes := [][2]int{{1, 8}, {2, 8}, {1, 16}, {2, 16}}
	out := make([]FetchPolicy, 0, len(Policies())*len(shapes))
	for _, p := range Policies() {
		for _, tw := range shapes {
			out = append(out, FetchPolicy{Policy: p, Threads: tw[0], Width: tw[1]})
		}
	}
	return out
}

// ParseFetchPolicy parses the POLICY.T.W notation (e.g. "ICOUNT.2.8",
// "RR.1.16"), round-tripping FetchPolicy.String.
func ParseFetchPolicy(s string) (FetchPolicy, error) {
	parts := strings.Split(strings.TrimSpace(s), ".")
	if len(parts) != 3 {
		return FetchPolicy{}, fmt.Errorf("config: fetch policy %q not in POLICY.T.W form (e.g. ICOUNT.2.8)", s)
	}
	p, err := ParsePolicy(parts[0])
	if err != nil {
		return FetchPolicy{}, err
	}
	t, err := strconv.Atoi(parts[1])
	if err != nil || t < 1 {
		return FetchPolicy{}, fmt.Errorf("config: fetch policy %q has bad thread count %q", s, parts[1])
	}
	w, err := strconv.Atoi(parts[2])
	if err != nil || w < 1 {
		return FetchPolicy{}, fmt.Errorf("config: fetch policy %q has bad width %q", s, parts[2])
	}
	return FetchPolicy{Policy: p, Threads: t, Width: w}, nil
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int
	Assoc     int
	LineBytes int
	Banks     int
	// HitLatency is the access time in cycles on a hit.
	HitLatency int
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Config is the full machine configuration (Table 3).
type Config struct {
	// Fetch front-end.
	Engine      Engine
	FetchPolicy FetchPolicy
	// FetchBufferSize is the decoupling buffer between fetch and decode
	// (32 instructions in Table 3).
	FetchBufferSize int
	// FTQSize is the per-thread fetch target queue depth (4 in Table 3).
	FTQSize int

	// Predictor sizing. The paper budgets ~45KB for each engine.
	GShareEntries     int // 64K entries, 16-bit history
	GShareHistoryBits int
	GSkewEntries      int // per table; 3 x 32K entries, 15-bit history
	GSkewHistoryBits  int
	BTBEntries        int // 2K entries
	BTBAssoc          int // 4-way
	StreamL1Entries   int // 1K entries, 4-way
	StreamL1Assoc     int
	StreamL2Entries   int // 4K entries, 4-way
	StreamL2Assoc     int
	// DOLC path-index parameters for the stream predictor (16-2-4-10).
	DOLCDepth, DOLCOlder, DOLCLast, DOLCCurrent int
	RASEntries                                  int // 64, replicated per thread

	// Back end.
	DecodeWidth  int
	CommitWidth  int
	ROBSize      int // shared among threads
	IntQueueSize int
	LSQueueSize  int
	FPQueueSize  int
	IntRegs      int
	FPRegs       int
	IntUnits     int
	LSUnits      int
	FPUnits      int

	// Memory hierarchy.
	L1I            CacheConfig
	L1D            CacheConfig
	L2             CacheConfig
	MemLatency     int
	ITLBEntries    int
	DTLBEntries    int
	TLBMissLatency int
	DMSHRs         int // outstanding data misses per thread

	// MaxThreads is the hardware context count (8-way SMT).
	MaxThreads int

	// Pipeline depths between named stages; the decoupled front-end adds
	// one stage (8 -> 9 total, per the paper).
	DecodeStages, RenameStages int
	// MispredictRedirectPenalty is the extra front-end bubble after a
	// branch misprediction is detected at execute, beyond the natural
	// pipeline refill (prediction restarts next cycle).
	MispredictRedirectPenalty int
	// MisfetchPenalty is the shorter redirect charged when the target
	// structure (BTB/FTB/stream) misses but decode discovers a taken
	// branch.
	MisfetchPenalty int
}

// Default returns the Table 3 configuration with the baseline engine and
// ICOUNT.1.8.
func Default() Config {
	return Config{
		Engine:      GShareBTB,
		FetchPolicy: ICount18,

		FetchBufferSize: 32,
		FTQSize:         4,

		GShareEntries:     64 * 1024,
		GShareHistoryBits: 16,
		GSkewEntries:      32 * 1024,
		GSkewHistoryBits:  15,
		BTBEntries:        2 * 1024,
		BTBAssoc:          4,
		StreamL1Entries:   1024,
		StreamL1Assoc:     4,
		StreamL2Entries:   4 * 1024,
		StreamL2Assoc:     4,
		DOLCDepth:         16,
		DOLCOlder:         2,
		DOLCLast:          4,
		DOLCCurrent:       10,
		RASEntries:        64,

		DecodeWidth:  8,
		CommitWidth:  8,
		ROBSize:      256,
		IntQueueSize: 32,
		LSQueueSize:  32,
		FPQueueSize:  32,
		IntRegs:      384,
		FPRegs:       384,
		IntUnits:     6,
		LSUnits:      4,
		FPUnits:      3,

		L1I:            CacheConfig{SizeBytes: 32 * 1024, Assoc: 2, LineBytes: 64, Banks: 8, HitLatency: 1},
		L1D:            CacheConfig{SizeBytes: 32 * 1024, Assoc: 2, LineBytes: 64, Banks: 8, HitLatency: 1},
		L2:             CacheConfig{SizeBytes: 1024 * 1024, Assoc: 2, LineBytes: 64, Banks: 8, HitLatency: 10},
		MemLatency:     100,
		ITLBEntries:    48,
		DTLBEntries:    128,
		TLBMissLatency: 30,
		DMSHRs:         8,

		MaxThreads: 8,

		DecodeStages:              2,
		RenameStages:              2,
		MispredictRedirectPenalty: 2,
		MisfetchPenalty:           2,
	}
}

// Validate reports configuration errors a user could plausibly introduce.
func (c *Config) Validate() error {
	fp := c.FetchPolicy
	if fp.Threads < 1 || fp.Threads > 2 {
		return fmt.Errorf("config: fetch policy threads must be 1 or 2, got %d", fp.Threads)
	}
	if fp.Width <= 0 {
		return fmt.Errorf("config: fetch width must be positive, got %d", fp.Width)
	}
	if c.FetchBufferSize < fp.Width {
		return fmt.Errorf("config: fetch buffer (%d) smaller than fetch width (%d)", c.FetchBufferSize, fp.Width)
	}
	if c.FTQSize < 1 {
		return fmt.Errorf("config: FTQ size must be >= 1, got %d", c.FTQSize)
	}
	if c.MaxThreads < 1 {
		return fmt.Errorf("config: MaxThreads must be >= 1, got %d", c.MaxThreads)
	}
	if c.DecodeWidth < 1 || c.CommitWidth < 1 {
		return fmt.Errorf("config: decode/commit width must be >= 1")
	}
	if c.ROBSize < c.DecodeWidth {
		return fmt.Errorf("config: ROB (%d) smaller than decode width (%d)", c.ROBSize, c.DecodeWidth)
	}
	// The decode/rename pipe holds one decode-width cohort per stage; with
	// no stage it holds nothing and the front end deadlocks.
	if c.DecodeStages < 0 || c.RenameStages < 0 || c.DecodeStages+c.RenameStages < 1 {
		return fmt.Errorf("config: decode (%d) and rename (%d) stages must be non-negative and total at least 1", c.DecodeStages, c.RenameStages)
	}
	for _, cc := range []struct {
		name string
		c    CacheConfig
	}{{"L1I", c.L1I}, {"L1D", c.L1D}, {"L2", c.L2}} {
		if err := validateCache(cc.name, cc.c); err != nil {
			return err
		}
	}
	// Only the fetch stage models bank conflicts, with a uint64 bitmask
	// over the L1I banks.
	if c.L1I.Banks > 64 {
		return fmt.Errorf("config: L1I: at most 64 banks supported, got %d", c.L1I.Banks)
	}
	if c.GShareEntries&(c.GShareEntries-1) != 0 {
		return fmt.Errorf("config: gshare entries must be a power of two, got %d", c.GShareEntries)
	}
	if c.GSkewEntries&(c.GSkewEntries-1) != 0 {
		return fmt.Errorf("config: gskew entries must be a power of two, got %d", c.GSkewEntries)
	}
	return nil
}

func validateCache(name string, c CacheConfig) error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("config: %s: size, line, assoc must be positive", name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("config: %s: line size must be a power of two, got %d", name, c.LineBytes)
	}
	if c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("config: %s: size %d not divisible by line*assoc", name, c.SizeBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("config: %s: set count must be a power of two, got %d", name, sets)
	}
	if c.Banks > 0 && c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("config: %s: bank count must be a power of two, got %d", name, c.Banks)
	}
	return nil
}
