package server

import (
	"testing"

	"smtfetch/internal/config"
	"smtfetch/internal/experiment"
)

// The two cache keys canonicalize the same axes the same way — both hash
// the one key document, whose machine has its engine and policy zeroed —
// and both are moved by any genuinely semantic machine knob. If an axis
// were canonicalized in one key but not the other, fork and rerun sweeps
// could agree while the result and snapshot cache tiers disagree about
// which cells are interchangeable.
func TestFingerprintAndWarmKeyCanonicalizeAlike(t *testing.T) {
	base := func() *experiment.Sweep {
		return &experiment.Sweep{WarmupInstrs: 10_000, WarmupCycles: 500}
	}
	cell := experiment.Cell{Workload: "2_MIX", Engine: config.GShareBTB, Policy: config.ICount28, Seed: 1}

	// Policy heuristic: canonicalized out of both keys. The key document
	// zeroes Machine.FetchPolicy; the cell key carries the policy, and
	// WarmKey's canonical cell the ICOUNT policy of the same shape.
	icount := base()
	flush := base()
	mc := config.Default()
	mc.FetchPolicy = config.ICount28
	icount.Machine = &mc
	mf := config.Default()
	mf.FetchPolicy = config.FetchPolicy{Policy: config.Flush, Threads: 2, Width: 8}
	flush.Machine = &mf
	if Fingerprint(icount) != Fingerprint(flush) {
		t.Error("Fingerprint split by the machine's policy heuristic; the cell key owns that axis")
	}
	if icount.WarmKey(cell) != flush.WarmKey(cell) {
		t.Error("WarmKey split by the machine's policy heuristic; canonicalization drifted from Fingerprint's")
	}

	// Engine: canonicalized out of Fingerprint (cell key carries it), but
	// a warm checkpoint's predictor state depends on it, so WarmKey keeps
	// it — via the cell, not the machine. The machine's engine field must
	// move neither key.
	ga := base()
	gb := base()
	ma := config.Default()
	ma.Engine = config.GShareBTB
	ga.Machine = &ma
	mb := config.Default()
	mb.Engine = config.StreamFetch
	gb.Machine = &mb
	if Fingerprint(ga) != Fingerprint(gb) {
		t.Error("Fingerprint split by the machine's engine field; the cell key owns that axis")
	}
	if ga.WarmKey(cell) != gb.WarmKey(cell) {
		t.Error("WarmKey split by the machine's engine field; the cell carries the engine")
	}
	other := cell
	other.Engine = config.StreamFetch
	if ga.WarmKey(cell) == ga.WarmKey(other) {
		t.Error("WarmKey ignores the cell's engine; warmed predictor state depends on it")
	}

	// A semantic machine knob must move both keys.
	big := base()
	mbig := config.Default()
	mbig.ROBSize = mbig.ROBSize * 2
	big.Machine = &mbig
	if Fingerprint(base()) == Fingerprint(big) {
		t.Error("Fingerprint ignores a semantic machine knob (ROBSize)")
	}
	if base().WarmKey(cell) == big.WarmKey(cell) {
		t.Error("WarmKey ignores a semantic machine knob (ROBSize)")
	}
}

// Fingerprint values are persisted: a server's cache file is keyed by
// them, so a change orphans every stored cell. The document's field list
// hashes byte-identically to Fingerprint's older one; these values were
// re-measured at result schema 3, whose bump is meant to orphan every
// cell simulated under the earlier per-cell seeding.
func TestFingerprintGolden(t *testing.T) {
	mc := config.Default()
	mc.ROBSize *= 2
	mc.Engine = config.StreamFetch
	for _, tc := range []struct {
		name string
		sw   *experiment.Sweep
		want string
	}{
		{"zero sweep", &experiment.Sweep{}, "a78c7b5b16bb1fe9"},
		{"phase lengths, sample, fork", &experiment.Sweep{
			WarmupInstrs: 10000, WarmupCycles: 500, MeasureInstrs: 20000, MaxCycles: 7,
			Sample: "detail:1000,skip:49000", WarmFork: experiment.WarmForkFork,
		}, "c32d82c648e84d9c"},
		{"machine override, rerun", &experiment.Sweep{Machine: &mc, WarmFork: experiment.WarmForkRerun}, "c68c575d6da4e622"},
	} {
		if got := Fingerprint(tc.sw); got != tc.want {
			t.Errorf("%s: Fingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}
