package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"smtfetch/internal/cluster"
	"smtfetch/internal/server"
)

func TestParseCoordinateFlags(t *testing.T) {
	addr, cfg, err := parseCoordinateFlags([]string{
		"-addr", "127.0.0.1:9999",
		"-workers", "http://a:8080, http://b:8080,",
		"-sync-limit", "-1",
		"-jobs", "6",
		"-probe-interval", "2s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if addr != "127.0.0.1:9999" {
		t.Fatalf("addr = %q", addr)
	}
	if len(cfg.Workers) != 2 || cfg.Workers[0] != "http://a:8080" || cfg.Workers[1] != "http://b:8080" {
		t.Fatalf("workers = %v", cfg.Workers)
	}
	if cfg.SyncCellLimit != -1 || cfg.Jobs != 6 || cfg.ProbeInterval != 2*time.Second {
		t.Fatalf("cfg = %+v", cfg)
	}

	if _, _, err := parseCoordinateFlags(nil); err == nil {
		t.Fatal("missing -workers accepted")
	}
	if _, _, err := parseCoordinateFlags([]string{"-workers", " , "}); err == nil {
		t.Fatal("empty -workers list accepted")
	}
}

// TestSweepThroughCoordinatorMatchesLocal is the CLI end-to-end: the
// same `sweep -server` invocation users point at one worker, pointed at
// a coordinator fronting two in-process workers, writes a byte-identical
// results file.
func TestSweepThroughCoordinatorMatchesLocal(t *testing.T) {
	var workers []string
	var srvs []*server.Server
	for i := 0; i < 2; i++ {
		srv, err := server.New(server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		workers = append(workers, ts.URL)
		srvs = append(srvs, srv)
	}
	co, err := cluster.New(cluster.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Stop)
	front := httptest.NewServer(co)
	t.Cleanup(front.Close)

	dir := t.TempDir()
	localOut := filepath.Join(dir, "local.json")
	clusterOut := filepath.Join(dir, "cluster.json")
	grid := []string{
		"-workloads", "2_MIX", "-engines", "stream",
		"-policies", "ICOUNT.1.8,RR.1.8,STALL.1.8,FLUSH.1.8",
		"-warmup", "2000", "-measure", "5000", "-q", "-table=false",
	}
	if err := cmdSweep(append(grid, "-o", localOut)); err != nil {
		t.Fatalf("local sweep: %v", err)
	}
	if err := cmdSweep(append(grid, "-server", front.URL, "-o", clusterOut)); err != nil {
		t.Fatalf("sweep through coordinator: %v", err)
	}
	local, err := os.ReadFile(localOut)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := os.ReadFile(clusterOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(local) != string(merged) {
		t.Fatalf("coordinator-dispatched sweep differs from local:\n%s\nvs\n%s", local, merged)
	}
	var misses uint64
	for _, s := range srvs {
		misses += s.CacheStats().Misses
	}
	if misses != 4 {
		t.Fatalf("fleet simulated %d cells, want 4", misses)
	}
}
