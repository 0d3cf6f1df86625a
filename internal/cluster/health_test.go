package cluster

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for pinning probe-backoff
// schedules without sleeping.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_000_000, 0)} }
func clockConfig(c *fakeClock, urls ...string) Config {
	return Config{Workers: urls, ProbeInterval: 5 * time.Second, Now: c.now}
}

// TestProbeBackoffSchedule pins the dead-worker probe schedule: 5s, 10s,
// 20s, 40s, then capped at 60s — a blipped worker is retried fast, a
// long-dead one is not hammered.
func TestProbeBackoffSchedule(t *testing.T) {
	clk := newFakeClock()
	co, err := New(clockConfig(clk, "http://a:1"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()
	wk := co.workers[0]
	boom := errors.New("synthetic dispatch failure")

	want := []time.Duration{
		5 * time.Second,
		10 * time.Second,
		20 * time.Second,
		40 * time.Second,
		60 * time.Second, // 80s capped
		60 * time.Second,
	}
	for i, backoff := range want {
		co.noteFailure(wk, boom)
		if wk.isAlive() {
			t.Fatalf("fail %d: worker still alive", i+1)
		}
		if wk.probeDue(clk.now()) {
			t.Fatalf("fail %d: probe due immediately, want %v backoff", i+1, backoff)
		}
		if wk.probeDue(clk.now().Add(backoff - time.Nanosecond)) {
			t.Fatalf("fail %d: probe due %v early", i+1, time.Nanosecond)
		}
		if !wk.probeDue(clk.now().Add(backoff)) {
			t.Fatalf("fail %d: probe not due after %v", i+1, backoff)
		}
	}

	st := wk.status()
	if st.ConsecutiveFails != len(want) || st.Failures != uint64(len(want)) {
		t.Fatalf("status = %+v, want %d consecutive and total failures", st, len(want))
	}
	if st.LastError == "" {
		t.Fatal("status carries no last error")
	}

	wk.noteSuccess()
	if !wk.isAlive() || !wk.probeDue(clk.now()) {
		t.Fatal("success did not reset liveness and backoff")
	}
	st = wk.status()
	if st.ConsecutiveFails != 0 || st.LastError != "" {
		t.Fatalf("status after success = %+v, want cleared", st)
	}
	if st.Failures != uint64(len(want)) {
		t.Fatalf("total failure count %d lost on success, want %d", st.Failures, len(want))
	}

	// The next failure restarts the schedule at the base.
	co.noteFailure(wk, boom)
	if !wk.probeDue(clk.now().Add(5 * time.Second)) {
		t.Fatal("backoff did not restart at base after recovery")
	}
	if wk.probeDue(clk.now().Add(5*time.Second - time.Nanosecond)) {
		t.Fatal("restarted backoff shorter than base")
	}
}

// TestProbeDueRespectsBackoff: ProbeDue must not touch a worker still
// inside its backoff window — with a frozen clock, a freshly demoted
// worker is never probed (a probe against this unresolvable URL would
// loudly alter its failure count).
func TestProbeDueRespectsBackoff(t *testing.T) {
	clk := newFakeClock()
	co, err := New(clockConfig(clk, "http://invalid.invalid:1"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Stop()
	wk := co.workers[0]
	co.noteFailure(wk, errors.New("synthetic"))
	before := wk.status()

	co.ProbeDue() // not due: frozen clock inside the 5s backoff
	if after := wk.status(); after.Failures != before.Failures {
		t.Fatalf("ProbeDue probed a backed-off worker: %+v -> %+v", before, after)
	}
}

func TestNewRejectsBadFleets(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty fleet")
	}
	if _, err := New(Config{Workers: []string{"http://a:1", "http://a:1/"}}); err == nil {
		t.Fatal("New accepted duplicate workers")
	}
	if _, err := New(Config{Workers: []string{""}}); err == nil {
		t.Fatal("New accepted an empty worker URL")
	}
}
