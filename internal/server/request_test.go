package server

import (
	"reflect"
	"testing"

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
