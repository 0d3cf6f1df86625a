// Package flight deduplicates concurrent work on the same key. A Group
// keeps nothing once a call ends: callers that want results to outlive
// the call keep their own store, look it up, and on a miss call Do with a
// function that builds the value and stores it.
package flight

import "sync"

// Group runs at most one call per key at a time. The zero value is ready
// to use; a Group must not be copied after first use.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do runs fn for key unless a call for key is already running, in which
// case it waits for that call. A successful value is shared with every
// waiter. A failed call is not: its value and error go only to the caller
// that ran it, and each waiter retries, one becoming the new leader — a
// transient failure must not fan out to everyone who happened to wait.
func (g *Group[V]) Do(key string, fn func() (V, error)) (V, error) {
	for {
		g.mu.Lock()
		if c, ok := g.calls[key]; ok {
			g.mu.Unlock()
			if h := testHookWait; h != nil {
				h(key)
			}
			<-c.done
			if c.err == nil {
				return c.val, nil
			}
			continue
		}
		if g.calls == nil {
			g.calls = make(map[string]*call[V])
		}
		c := &call[V]{done: make(chan struct{})}
		g.calls[key] = c
		g.mu.Unlock()

		c.val, c.err = fn()
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
		return c.val, c.err
	}
}

// testHookWait, when non-nil, fires the moment a caller commits to
// waiting on another caller's call for key. Tests use it to know, without
// sleeping, that every caller is parked before they release the leader;
// production code never sets it.
var testHookWait func(key string)
