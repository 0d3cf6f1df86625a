package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestSweepReproducesBaseline reruns the grid of CI's sweep regression
// gate and requires baselines/sweep_baseline.json byte for byte, so a
// local `go test ./...` sees any drift in a simulated number, not only
// the IPC drops `compare` flags. It takes a few seconds of every CPU, so
// it skips under -short, and under -race, where CI's gate still runs the
// same grid.
func TestSweepReproducesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size 42-cell grid")
	}
	if raceEnabled {
		t.Skip("full-size 42-cell grid; CI's sweep regression gate covers race builds")
	}
	out := filepath.Join(t.TempDir(), "sweep.json")
	if err := cmdSweep([]string{
		"-workloads", "2_MIX,4_MIX",
		"-policies", "ICOUNT.1.8,RR.1.8,BRCOUNT.1.8,MISSCOUNT.1.8,IQPOSN.1.8,STALL.1.8,FLUSH.1.8",
		"-seeds", "1", "-warmup", "50000", "-measure", "200000", "-q", "-table=false", "-o", out,
	}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "baselines", "sweep_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("sweep differs from the baseline at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("sweep has %d lines, the baseline %d", len(gl), len(wl))
	}
}
