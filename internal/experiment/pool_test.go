package experiment

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// mergeCells builds n distinguishable cells already in canonical order
// (seed is the last sort key, so ascending seeds are sorted).
func mergeCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{Workload: "2_MIX", Seed: uint64(i + 1)}
	}
	return cells
}

func seedResult(c Cell) Result {
	return Result{Workload: c.Workload, Engine: c.Engine.String(), Policy: c.Policy.String(), Seed: c.Seed}
}

// TestRunOrderedEmitsInCellOrder completes cells in an adversarial
// (reverse) order, scripted entirely with channels: each in-flight batch
// is released newest-first, and the emit sequence must still be the
// canonical cell order.
func TestRunOrderedEmitsInCellOrder(t *testing.T) {
	const n, jobs, window = 9, 3, 3
	cells := mergeCells(n)

	var mu sync.Mutex
	gates := map[uint64]chan struct{}{}
	started := make(chan uint64, n)
	fetch := func(c Cell) Result {
		g := make(chan struct{})
		mu.Lock()
		gates[c.Seed] = g
		mu.Unlock()
		started <- c.Seed
		<-g
		return seedResult(c)
	}

	var emitted []uint64
	done := make(chan error, 1)
	go func() {
		done <- runOrdered(cells, jobs, window, fetch, func(r Result) error {
			emitted = append(emitted, r.Seed)
			return nil
		})
	}()

	released := 0
	for released < n {
		// Collect the current in-flight batch (bounded by jobs and the
		// window), then release it in REVERSE order: completion order is
		// maximally unlike cell order.
		batch := []uint64{<-started}
	drain:
		for len(batch) < jobs {
			select {
			case s := <-started:
				batch = append(batch, s)
			default:
				break drain
			}
		}
		for i := len(batch) - 1; i >= 0; i-- {
			mu.Lock()
			g := gates[batch[i]]
			mu.Unlock()
			close(g)
			released++
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("runOrdered: %v", err)
	}
	if len(emitted) != n {
		t.Fatalf("emitted %d results, want %d", len(emitted), n)
	}
	for i, s := range emitted {
		if s != uint64(i+1) {
			t.Fatalf("emit order broken at %d: got seeds %v", i, emitted)
		}
	}
}

// TestRunOrderedWindowBoundsDispatch: cell window+1 must not be handed to
// a worker while cell 1 is still unemitted — the reorder buffer is the
// flow control, not just a buffer.
func TestRunOrderedWindowBoundsDispatch(t *testing.T) {
	const n, jobs, window = 8, 2, 3
	cells := mergeCells(n)

	started := make(chan uint64, n)
	release := make(chan struct{})
	fetch := func(c Cell) Result {
		started <- c.Seed
		if c.Seed == 1 {
			<-release // head cell stalls; dispatch must throttle behind it
		}
		return seedResult(c)
	}
	done := make(chan error, 1)
	var emitted int
	go func() {
		done <- runOrdered(cells, jobs, window, fetch, func(Result) error {
			emitted++
			return nil
		})
	}()

	// With the head stalled, exactly `window` cells can ever start: the
	// feeder blocks acquiring slot window+1. Seeing one extra start would
	// mean the window leaks; seeing fewer would deadlock this receive.
	startedSet := map[uint64]bool{}
	for i := 0; i < window; i++ {
		startedSet[<-started] = true
	}
	if !startedSet[1] {
		t.Fatalf("head cell not dispatched; started %v", startedSet)
	}
	select {
	case s := <-started:
		t.Fatalf("cell %d dispatched beyond the %d-cell window while head stalled", s, window)
	default:
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("runOrdered: %v", err)
	}
	if emitted != n {
		t.Fatalf("emitted %d, want %d", emitted, n)
	}
}

// TestRunOrderedEmitErrorDrains: the first emit error is returned, later
// emits are skipped, and every fetch still runs (no leaked workers, no
// abandoned dispatches).
func TestRunOrderedEmitErrorDrains(t *testing.T) {
	const n = 6
	cells := mergeCells(n)
	var fetched int32
	var mu sync.Mutex
	fetch := func(c Cell) Result {
		mu.Lock()
		fetched++
		mu.Unlock()
		return seedResult(c)
	}
	boom := errors.New("client went away")
	emits := 0
	err := runOrdered(cells, 2, 4, fetch, func(r Result) error {
		emits++
		if r.Seed == 2 {
			return fmt.Errorf("write: %w", boom)
		}
		if r.Seed > 2 {
			t.Errorf("emit called for seed %d after error", r.Seed)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("runOrdered error = %v, want %v", err, boom)
	}
	mu.Lock()
	defer mu.Unlock()
	if fetched != n {
		t.Fatalf("fetched %d cells, want all %d despite emit error", fetched, n)
	}
}

func TestRunOrderedEmpty(t *testing.T) {
	if err := runOrdered(nil, 4, 8, nil, nil); err != nil {
		t.Fatalf("empty runOrdered: %v", err)
	}
}
