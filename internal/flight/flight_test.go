package flight

import (
	"errors"
	"sync/atomic"
	"testing"
)

// parkHook installs testHookWait for the test and returns the channel
// each parked waiter reports on.
func parkHook(t *testing.T, n int) <-chan string {
	t.Helper()
	parked := make(chan string, n)
	testHookWait = func(key string) { parked <- key }
	t.Cleanup(func() { testHookWait = nil })
	return parked
}

// TestGroupSharesLeaderResult: while a call for a key is running, no
// second call starts; callers park behind the leader and share its
// value. The leader is held inside fn, and testHookWait confirms every
// other caller has committed to waiting before the leader is released.
func TestGroupSharesLeaderResult(t *testing.T) {
	var g Group[int]
	started := make(chan struct{})
	release := make(chan struct{})
	var runs int32
	fn := func() (int, error) {
		if atomic.AddInt32(&runs, 1) == 1 {
			close(started)
		}
		<-release
		return 42, nil
	}

	const waiters = 8
	parked := parkHook(t, waiters)

	leaderDone := make(chan int, 1)
	go func() { v, _ := g.Do("k", fn); leaderDone <- v }()
	<-started // the leader is inside fn; its call exists

	results := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			v, err := g.Do("k", fn)
			if err != nil {
				t.Errorf("waiter got error %v", err)
			}
			results <- v
		}()
	}
	for i := 0; i < waiters; i++ {
		if key := <-parked; key != "k" {
			t.Fatalf("waiter parked on %q", key)
		}
	}
	close(release)

	for i := 0; i < waiters; i++ {
		if got := <-results; got != 42 {
			t.Fatalf("waiter got %d, want 42", got)
		}
	}
	if got := <-leaderDone; got != 42 {
		t.Fatalf("leader got %d", got)
	}
	if n := atomic.LoadInt32(&runs); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
}

// TestGroupFailureNotShared: a leader whose call fails does not poison
// its waiter. The leader gets its own value and error back; the waiter
// retries as the new leader and gets a fresh result.
func TestGroupFailureNotShared(t *testing.T) {
	var g Group[string]
	errTransient := errors.New("transient worker failure")
	started := make(chan struct{})
	release := make(chan struct{})
	var runs int32
	fn := func() (string, error) {
		if atomic.AddInt32(&runs, 1) == 1 {
			close(started)
			<-release
			return "partial", errTransient
		}
		return "good", nil
	}

	parked := parkHook(t, 1)

	type out struct {
		v   string
		err error
	}
	leaderDone := make(chan out, 1)
	go func() { v, err := g.Do("k", fn); leaderDone <- out{v, err} }()
	<-started

	waiterDone := make(chan out, 1)
	go func() { v, err := g.Do("k", fn); waiterDone <- out{v, err} }()
	<-parked // the waiter is committed to waiting on the failing leader
	close(release)

	if got := <-leaderDone; got.v != "partial" || got.err != errTransient {
		t.Fatalf("leader got %+v, want its own value and error", got)
	}
	if got := <-waiterDone; got.v != "good" || got.err != nil {
		t.Fatalf("waiter got %+v, want a fresh successful call", got)
	}
	if n := atomic.LoadInt32(&runs); n != 2 {
		t.Fatalf("fn ran %d times, want 2 (failed leader + retrying waiter)", n)
	}
}

// TestGroupDistinctKeysDoNotBlock: calls are per key; a second key
// proceeds while the first is running.
func TestGroupDistinctKeysDoNotBlock(t *testing.T) {
	var g Group[string]
	started := make(chan struct{})
	release := make(chan struct{})

	aDone := make(chan string, 1)
	go func() {
		v, _ := g.Do("a", func() (string, error) {
			close(started)
			<-release
			return "a", nil
		})
		aDone <- v
	}()
	<-started

	// With key a's leader still blocked, key b must complete: if calls
	// were keyed too coarsely this call would deadlock.
	if v, _ := g.Do("b", func() (string, error) { return "b", nil }); v != "b" {
		t.Fatalf("key b got %q", v)
	}
	close(release)
	if v := <-aDone; v != "a" {
		t.Fatalf("key a got %q", v)
	}
}

// TestGroupKeepsNothing: a finished call is not remembered, so the next
// Do for the same key runs fn again. Callers that want reuse keep their
// own store.
func TestGroupKeepsNothing(t *testing.T) {
	var g Group[int]
	runs := 0
	for i := 1; i <= 2; i++ {
		v, err := g.Do("k", func() (int, error) { runs++; return runs, nil })
		if err != nil || v != i {
			t.Fatalf("call %d got (%d, %v)", i, v, err)
		}
	}
}
