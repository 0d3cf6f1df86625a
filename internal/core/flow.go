package core

// Instruction conservation: every fetched uop is eventually committed or
// squashed, and until then it occupies one of the bounded structures
// inFlightBound adds up. CheckFlow verifies both at a cycle boundary.
//
// Cold-path code, outside the cycle loop.

import (
	"fmt"

	"smtfetch/internal/pipeline"
)

// InFlightBound returns the most uops one thread can have in flight.
func (s *Sim) InFlightBound() int { return inFlightBound(s.cfg) }

// inFlight returns the number of thread t's uops that were fetched and are
// neither committed nor squashed: those in the ROB, the decode/rename
// pipe, the fetch buffer and the FLUSH replay queue.
func (s *Sim) inFlight(t int) int {
	ts := &s.threads[t]
	return s.rob.LenOf(t) + ringCount(s.frontPipe, t) + ringCount(s.fetchBuf, t) +
		len(ts.replay) - ts.replayPos
}

func ringCount(r *pipeline.UOpRing, t int) int {
	n := 0
	for i := 0; i < r.Len(); i++ {
		if u := r.At(i); u.Thread == t && !u.Squashed {
			n++
		}
	}
	return n
}

// CheckFlow verifies, per thread, that no more than InFlightBound uops are
// in flight and that the counters since the last statistics reset balance:
// fetched = committed + squashed + change in flight, where a FLUSH replay
// fetches a uop a second time and so counts once in Replayed too.
func (s *Sim) CheckFlow() error {
	bound := inFlightBound(s.cfg)
	for t := range s.threads {
		in := s.inFlight(t)
		if in > bound {
			return fmt.Errorf("core: thread %d has %d uops in flight, bound %d", t, in, bound)
		}
		pt := &s.st.PerThread[t]
		if pt.Fetched-pt.Replayed != pt.Committed+pt.Squashed+uint64(in)-uint64(s.flowBase[t]) {
			return fmt.Errorf("core: thread %d does not balance: fetched %d with %d replays, committed %d, squashed %d, in flight %d (%d at the last stats reset)",
				t, pt.Fetched, pt.Replayed, pt.Committed, pt.Squashed, in, s.flowBase[t])
		}
	}
	return nil
}

// PoolSizes returns how many uops the simulator has created and, per
// thread, how many fetch requests. Both are pools that grow only while
// their working set does; the in-flight bound caps that working set.
func (s *Sim) PoolSizes() (uops int, reqs []int) {
	reqs = make([]int, s.nthreads)
	for t := range reqs {
		reqs[t], _ = s.fe.PoolStats(t)
	}
	return s.uopsMade, reqs
}
