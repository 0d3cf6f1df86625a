package experiment

import (
	"io"
	"runtime"
	"slices"
	"sync"
)

// runOrdered executes fetch over every cell on `jobs` workers and emits
// the results strictly in cell order, buffering at most `window` results
// that are in flight or waiting for an earlier cell to finish. Cells are
// handed to workers in cell order. With a window as large as the cell
// list it is a plain pool whose emits come out in cell order; with a
// small one the emit callback sees results exactly as a sorted batch
// would have ordered them, but memory stays bounded by the window
// regardless of grid size.
//
// The window also acts as dispatch flow control: cell i+window is not
// handed to a worker until cell i has been emitted, so one slow cell at
// the head throttles the pool instead of letting completed results pile
// up without bound behind it.
//
// An emit error stops further writing but still drains every in-flight
// fetch (workers must not leak); the first emit error is returned.
func runOrdered(cells []Cell, jobs, window int, fetch func(Cell) Result, emit func(Result) error) error {
	if len(cells) == 0 {
		return nil
	}
	if jobs > len(cells) {
		jobs = len(cells)
	}
	if jobs < 1 {
		jobs = 1
	}
	if window < jobs {
		window = jobs
	}

	type indexed struct {
		i int
		r Result
	}
	// outstanding counts dispatched-but-not-yet-emitted cells; the feeder
	// acquires before handing an index out, the emit loop releases.
	outstanding := make(chan struct{}, window)
	indices := make(chan int)
	results := make(chan indexed)

	go func() {
		for i := range cells {
			outstanding <- struct{}{}
			indices <- i
		}
		close(indices)
	}()

	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				results <- indexed{i, fetch(cells[i])}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder buffer: results arrive in completion order, leave in cell
	// order. Because indices are dispatched in order, the next-to-emit
	// cell is always already dispatched, so progress is guaranteed.
	pending := make(map[int]Result, jobs)
	next := 0
	var emitErr error
	for ir := range results {
		pending[ir.i] = ir.r
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if emitErr == nil {
				emitErr = emit(r)
			}
			<-outstanding
			next++
		}
	}
	return emitErr
}

// poolSize is the sweep's worker count: Jobs, or NumCPU when unset.
func (s *Sweep) poolSize() int {
	if s.Jobs <= 0 {
		return runtime.NumCPU()
	}
	return s.Jobs
}

// runCells is the one cell runner behind RunCells and WriteCells. A
// worker that takes a cell asks src first and executes the cell only
// when src has no answer; OnResult sees each result, serialized, in
// completion order; emit sees them in cell order (see runOrdered).
func (s *Sweep) runCells(cells []Cell, src ResultSource, window int, emit func(Result) error) error {
	if s.snap == nil {
		s.snap = &snapMemo{}
	}
	var (
		mu   sync.Mutex
		done int
	)
	fetch := func(c Cell) Result {
		r := s.resolveCell(c, src)
		if s.OnResult != nil {
			mu.Lock()
			done++
			s.OnResult(done, len(cells), r)
			mu.Unlock()
		}
		return r
	}
	return runOrdered(cells, s.poolSize(), window, fetch, emit)
}

// WriteCells executes an already-validated cell list like RunCells, but
// writes the results document to w while the cells run. Cells are
// dispatched in canonical order and each result is written as soon as
// every earlier one has been, so at most 2×Jobs results are held at once
// however large the grid; the bytes equal WriteJSON over the same
// results. Per-cell failures travel inside the document; the error is
// w's first write error.
func (s *Sweep) WriteCells(w io.Writer, cells []Cell, src ResultSource) error {
	sorted := slices.Clone(cells)
	sortCells(sorted)
	rs := newResultStream(w)
	if err := s.runCells(sorted, src, 2*s.poolSize(), rs.Write); err != nil {
		return err
	}
	return rs.Close()
}
