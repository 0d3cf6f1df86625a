package core

import (
	"runtime"
	"testing"

	"smtfetch/internal/config"
)

// maxWarmAllocBytes bounds the heap bytes allocated while an 8_MIX stream
// simulator warms for 50k committed instructions. It is about twice the
// measured figure (0.79 MB, amd64, Go 1.24). When prog.Stream kept every
// consumed instruction until 4,096 had piled up, the same warm-up allocated
// 6.5 MB, most of it the committed and ghost streams' lookahead buffers.
const maxWarmAllocBytes = 1_600_000

// TestWarmAllocBounded fails when the warm-up of a many-thread simulator
// starts allocating in proportion to the instructions it walks: a
// lookahead buffer or queue that grows with the run rather than with the
// machine's size shows here long before it shows in a sweep's RSS.
func TestWarmAllocBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := newWorkloadSim(t, "8_MIX", config.StreamFetch, config.Default().FetchPolicy, 0xB5EED)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Run(50_000, 10_000_000)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > maxWarmAllocBytes {
		t.Errorf("warming 8_MIX for 50k instructions allocated %d bytes, want at most %d", got, maxWarmAllocBytes)
	} else {
		t.Logf("warming 8_MIX for 50k instructions allocated %d bytes (bound %d)", got, maxWarmAllocBytes)
	}
}
