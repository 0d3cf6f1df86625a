package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"smtfetch/internal/config"
	"smtfetch/internal/experiment"
)

// localOnly lists the Sweep fields a request deliberately does not carry:
// execution mechanics the receiving server supplies for itself.
var localOnly = map[string]bool{
	"Jobs": true, "Filter": true, "OnResult": true, "SnapshotSource": true, "snap": true,
}

// rejected lists the Sweep fields a request cannot carry at all;
// NewSweepRequest refuses a sweep that sets one.
var rejected = map[string]bool{"Machine": true}

// Every Sweep field survives NewSweepRequest → SweepRequest.Sweep, or is
// named above. The fixture must set each carried field to a non-zero
// value, so a new Sweep field fails here until it reaches the request (or
// is listed) instead of being silently dropped on the way to a worker.
func TestSweepRequestRoundTrip(t *testing.T) {
	sw := &experiment.Sweep{
		Engines:       []config.Engine{config.StreamFetch, config.GShareBTB},
		Policies:      []config.FetchPolicy{config.ICount28, {Policy: config.Flush, Threads: 1, Width: 8}},
		Workloads:     []string{"2_MIX", "4_MIX"},
		Seeds:         []uint64{3, 1},
		WarmupInstrs:  1,
		WarmupCycles:  2,
		MeasureInstrs: 3,
		MaxCycles:     4,
		Sample:        "detail:1000,skip:9000",
		WarmFork:      experiment.WarmForkFork,
	}
	req, err := NewSweepRequest(sw)
	if err != nil {
		t.Fatal(err)
	}
	back, err := req.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	want, got := reflect.ValueOf(sw).Elem(), reflect.ValueOf(back).Elem()
	for i := 0; i < want.NumField(); i++ {
		name := want.Type().Field(i).Name
		if localOnly[name] || rejected[name] {
			continue
		}
		if want.Field(i).IsZero() {
			t.Errorf("fixture leaves Sweep.%s zero: set it, or list it as local-only or rejected", name)
			continue
		}
		if !reflect.DeepEqual(want.Field(i).Interface(), got.Field(i).Interface()) {
			t.Errorf("Sweep.%s = %v after the round trip, want %v", name, got.Field(i), want.Field(i))
		}
	}

	mc := config.Default()
	if _, err := NewSweepRequest(&experiment.Sweep{Machine: &mc}); err == nil {
		t.Error("NewSweepRequest accepted a machine override")
	}
	if _, err := NewSweepRequest(&experiment.Sweep{Filter: func(experiment.Cell) bool { return true }}); err == nil {
		t.Error("NewSweepRequest accepted a cell filter")
	}
}

// A grid over MaxGridCells is refused with 400, naming the cap, before it
// is expanded: 70 000 seeds fit well under the body cap, yet no job is
// created and the answer comes at once.
func TestOversizedGridRejected(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	seeds := make([]uint64, 70_000)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	body, err := json.Marshal(SweepRequest{Async: true, Workloads: []string{"2_MIX"},
		Engines: []string{"stream"}, Policies: []string{"ICOUNT.1.8"}, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) >= maxSweepRequestBytes {
		t.Fatalf("request body is %d bytes, want it under the %d-byte body cap", len(body), maxSweepRequestBytes)
	}
	start := time.Now()
	resp, err := http.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var msg bytes.Buffer
	if _, err := msg.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %s, want 400", resp.Status)
	}
	if !strings.Contains(msg.String(), "65536-cell cap") {
		t.Errorf("error %q does not name the cap", msg.String())
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("rejection took %v", d)
	}
	if _, ok := srv.jobs.Get("job-1"); ok {
		t.Fatal("oversized grid created a job")
	}
}
