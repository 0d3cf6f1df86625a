package smtfetch

import (
	"fmt"
	"runtime"
	"sync"
	"weak"

	"smtfetch/internal/flight"
	"smtfetch/internal/prog"
)

// sharedPrograms is the process-wide table of the programs live
// simulators run. Every engine, policy and warm-fork cell of a (workload,
// seed) simulates the same programs, so simulators built from one
// (profile, program seed) share one read-only *prog.Program instead of
// each running prog.Build. Sharing cannot change a result: Build is a pure
// function of (profile, seed) and nothing writes a Program after Build
// returns.
//
// The table holds programs weakly: a program stays reachable through it
// only until the collector reclaims it after the last simulator running
// it is gone, and a cleanup then deletes its entry. So the table has no
// size bound to tune and never keeps a program alive on its own.
var sharedPrograms programTable

type programTable struct {
	mu     sync.Mutex
	live   map[string]weak.Pointer[prog.Program]
	flight flight.Group[*prog.Program]
}

// program returns the live program built from (profile, seed), building
// it on a miss. Concurrent misses on one key share one build.
func (t *programTable) program(profile prog.Profile, seed uint64) *prog.Program {
	key := programKey(profile, seed)
	if p := t.lookup(key); p != nil {
		return p
	}
	p, _ := t.flight.Do(key, func() (*prog.Program, error) {
		// A leader that finished between the lookup above and this call
		// has stored its program already.
		if p := t.lookup(key); p != nil {
			return p, nil
		}
		p := prog.Build(profile, seed)
		t.mu.Lock()
		if t.live == nil {
			t.live = make(map[string]weak.Pointer[prog.Program])
		}
		t.live[key] = weak.Make(p)
		t.mu.Unlock()
		runtime.AddCleanup(p, t.prune, key)
		return p, nil
	})
	return p
}

// programKey names the program prog.Build makes from (profile, seed).
// Build validates the profile first, so the key holds the validated
// profile; %#v quotes the name and prints each float so that it
// round-trips, so distinct profiles never share a key.
func programKey(profile prog.Profile, seed uint64) string {
	return fmt.Sprintf("%#v/%d", profile.Validate(), seed)
}

// lookup returns key's program while some simulator still holds it, else
// nil.
func (t *programTable) lookup(key string) *prog.Program {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live[key].Value()
}

// prune runs after key's program is reclaimed and deletes its entry,
// unless a later build of the same key has replaced it.
func (t *programTable) prune(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.live[key].Value() == nil {
		delete(t.live, key)
	}
}
