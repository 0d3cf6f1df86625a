package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"smtfetch/internal/config"
)

// pinnedCell is one simulator whose snapshot bytes are pinned: fresh
// builds it, warm brings it to the snapshotted state, and sha256 is the
// digest of its Snapshot().
type pinnedCell struct {
	name   string
	fresh  func(t *testing.T) *Sim
	warm   func(t *testing.T, s *Sim)
	sha256 string
}

// pinnedCells are measured with seed 7: every engine on 2_MIX and 8_MIX
// warmed 200k instructions under ICOUNT.2.8; a FLUSH.2.8 cell stopped
// while a thread has replay uops in flight; and a stream cell after Drain
// and FastForwardShares. A deliberate format change bumps SnapshotVersion
// and re-pins the digests.
func pinnedCells() []pinnedCell {
	digests := map[string]string{
		"2_MIX/gshare+BTB": "e0ca74cda5ee1c0aed45ec0d363755635c8757d246cb999faf38e0b6c27dc4a8",
		"2_MIX/gskew+FTB":  "d33c6dbe9c291d9cac2981334caf6ea187943d2dd55bc093b7fe4ab20828b9ba",
		"2_MIX/stream":     "36e953041078ee9d253455d5667f367954cdc987c7a57f3bf1d3fad4bf73a9e0",
		"8_MIX/gshare+BTB": "18b65f96d98698b3b43fbcb326f556dc34de96d4ba287752f9fb18cb45efbb92",
		"8_MIX/gskew+FTB":  "1bc7f62aeaf1500e9bfdc80e7a6dfa9935cfc19193bdf880453a8dea766d8ce8",
		"8_MIX/stream":     "18f691732d12a01316f8e17099b1f6d3d8db39243839075e9cdb9288d0b4096d",
	}
	var cells []pinnedCell
	for _, wl := range []string{"2_MIX", "8_MIX"} {
		for _, eng := range []config.Engine{config.GShareBTB, config.GSkewFTB, config.StreamFetch} {
			name := wl + "/" + eng.String()
			cells = append(cells, pinnedCell{
				name:   name,
				fresh:  func(t *testing.T) *Sim { return newWorkloadSim(t, wl, eng, config.ICount28, 7) },
				warm:   func(t *testing.T, s *Sim) { s.Run(200_000, 10_000_000) },
				sha256: digests[name],
			})
		}
	}
	flush := config.FetchPolicy{Policy: config.Flush, Threads: 2, Width: 8}
	cells = append(cells, pinnedCell{
		name:  "2_MIX/gshare+BTB/FLUSH.2.8/replay",
		fresh: func(t *testing.T) *Sim { return newWorkloadSim(t, "2_MIX", config.GShareBTB, flush, 7) },
		warm: func(t *testing.T, s *Sim) {
			for !s.replayInFlight() {
				if s.Cycles() > 1_000_000 {
					t.Fatal("FLUSH.2.8 cell never had replay uops in flight")
				}
				s.Cycle()
			}
		},
		sha256: "178c329796b0a41a1e24bc08c775ee06d02af438b7cb8bf489618c1febeea437",
	}, pinnedCell{
		name:  "4_MIX/stream/drained+fast-forwarded",
		fresh: func(t *testing.T) *Sim { return newWorkloadSim(t, "4_MIX", config.StreamFetch, config.ICount28, 7) },
		warm: func(t *testing.T, s *Sim) {
			s.Run(50_000, 10_000_000)
			if err := s.Drain(1_000_000); err != nil {
				t.Fatal(err)
			}
			if err := s.FastForwardShares(100_000, []uint64{3, 1, 0, 2}); err != nil {
				t.Fatal(err)
			}
		},
		sha256: "059c15349c0866a34d4a68ba45290b19e079e64c95e188da20fc4a0d15697571",
	})
	return cells
}

// replayInFlight reports whether any thread holds unreplayed FLUSH uops.
func (s *Sim) replayInFlight() bool {
	for t := range s.threads {
		if ts := &s.threads[t]; ts.replayPos < len(ts.replay) {
			return true
		}
	}
	return false
}

// TestSnapshotBytesPinned pins the snapshot byte format: a change to any
// component's snapshot codec that moves a single byte fails here, even
// when snapshot and restore still agree with each other. Each cell's
// snapshot must also restore onto a fresh simulator and re-snapshot to
// the same bytes.
func TestSnapshotBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulator runs; skipped with -short")
	}
	if raceEnabled {
		t.Skip("slow under the race detector, and the bytes do not depend on it")
	}
	for _, c := range pinnedCells() {
		s := c.fresh(t)
		c.warm(t, s)
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != c.sha256 {
			t.Errorf("%s: snapshot sha256 %s (%d bytes), pinned %s", c.name, got, len(blob), c.sha256)
		}
		r := c.fresh(t)
		if err := r.Restore(blob); err != nil {
			t.Fatalf("%s: restore: %v", c.name, err)
		}
		again, err := r.Snapshot()
		if err != nil {
			t.Fatalf("%s: re-snapshot: %v", c.name, err)
		}
		if !bytes.Equal(blob, again) {
			t.Errorf("%s: snapshot of the restored simulator differs", c.name)
		}
	}
}
