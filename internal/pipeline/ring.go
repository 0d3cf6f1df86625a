package pipeline

// UOpRing is a fixed-capacity FIFO of uops backed by a power-of-two ring
// buffer. The simulator's per-cycle buffers (fetch buffer, decode/rename
// pipe, the ROB's per-thread FIFOs) pop from the head every cycle; a
// slice-based queue either shifts elements or walks its backing array
// forward and reallocates, both of which show up in the cycle loop. The
// ring does neither, and it never grows: each ring is built at the bound
// of the structure it models, and every producer checks for room before
// pushing (that check is the pipeline's backpressure).
type UOpRing struct {
	buf  []*UOp
	head int
	n    int
	cap  int
}

// NewUOpRing returns an empty ring that holds at most capacity uops.
func NewUOpRing(capacity int) *UOpRing {
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &UOpRing{buf: make([]*UOp, c), cap: capacity}
}

// Cap returns the most uops the ring holds.
//
//smtfetch:hotpath
func (r *UOpRing) Cap() int { return r.cap }

// Full reports whether the ring holds Cap uops.
//
//smtfetch:hotpath
func (r *UOpRing) Full() bool { return r.n >= r.cap }

// Len returns the number of queued uops.
//
//smtfetch:hotpath
func (r *UOpRing) Len() int { return r.n }

// At returns the i-th oldest uop (0 = head). It panics on out-of-range
// indices, like a slice.
//
//smtfetch:hotpath
func (r *UOpRing) At(i int) *UOp {
	if i < 0 || i >= r.n {
		panic("pipeline: UOpRing index out of range")
	}
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Push appends u at the tail. Pushing onto a full ring panics: a missing
// room check upstream is a bug, not a reason to grow.
//
//smtfetch:hotpath
func (r *UOpRing) Push(u *UOp) {
	if r.n >= r.cap {
		panic("pipeline: UOpRing overflow")
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = u
	r.n++
}

// PopHead removes and returns the oldest uop, or nil when empty.
//
//smtfetch:hotpath
func (r *UOpRing) PopHead() *UOp {
	if r.n == 0 {
		return nil
	}
	u := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return u
}

// PopTail removes and returns the youngest uop, or nil when empty.
//
//smtfetch:hotpath
func (r *UOpRing) PopTail() *UOp {
	if r.n == 0 {
		return nil
	}
	i := (r.head + r.n - 1) & (len(r.buf) - 1)
	u := r.buf[i]
	r.buf[i] = nil
	r.n--
	return u
}

// Filter keeps only the uops for which keep returns true, preserving order
// and compacting in place.
//
//smtfetch:hotpath
func (r *UOpRing) Filter(keep func(u *UOp) bool) {
	mask := len(r.buf) - 1
	w := 0
	for i := 0; i < r.n; i++ {
		u := r.buf[(r.head+i)&mask]
		if keep(u) {
			r.buf[(r.head+w)&mask] = u
			w++
		}
	}
	for i := w; i < r.n; i++ {
		r.buf[(r.head+i)&mask] = nil
	}
	r.n = w
}

// Clear empties the ring.
func (r *UOpRing) Clear() {
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)&mask] = nil
	}
	r.head, r.n = 0, 0
}
