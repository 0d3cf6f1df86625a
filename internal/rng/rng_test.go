package rng_test

import (
	"math"
	"testing"

	"smtfetch/internal/rng"
)

// TestFirstOutputsPinned pins the generator: every program and every
// simulation result is drawn from it, so changing one output changes them
// all.
func TestFirstOutputsPinned(t *testing.T) {
	r := rng.New(1)
	for i, want := range []uint64{0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7} {
		if got := r.Uint64(); got != want {
			t.Errorf("New(1) output %d = %#x, want %#x", i, got, want)
		}
	}
	r = rng.New(1)
	f, n, g, k := r.Float64(), r.Intn(1000), r.Geometric(5.76), r.Pick([]float64{8, 0.3, 0.5})
	if f != 0.7029218331588505 || n != 522 || g != 4 || k != 0 {
		t.Errorf("New(1) Float64, Intn(1000), Geometric(5.76), Pick = %v, %d, %d, %d; want 0.7029218331588505, 522, 4, 0", f, n, g, k)
	}
}

// TestBoolEdgesDrawNothing: Bool at p <= 0 or p >= 1 decides without a
// draw, so such probabilities never shift the rest of a stream.
func TestBoolEdgesDrawNothing(t *testing.T) {
	r := rng.New(7)
	before := r.State()
	for _, p := range []float64{math.Inf(-1), -1, 0, 1, 1.5, math.Inf(1)} {
		if got, want := r.Bool(p), p >= 1; got != want {
			t.Errorf("Bool(%v) = %v, want %v", p, got, want)
		}
		if r.State() != before {
			t.Fatalf("Bool(%v) drew from the generator", p)
		}
	}
}

// boolRef is the definition Bool must match.
func boolRef(r *rng.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// TestBoolMatchesDefinition checks Bool against boolRef draw for draw,
// NaN included.
func TestBoolMatchesDefinition(t *testing.T) {
	r, ref := rng.New(3), rng.New(3)
	for i := 0; i < 10_000; i++ {
		p := float64(i%121)/100 - 0.1
		if i%997 == 0 {
			p = math.NaN()
		}
		want := boolRef(ref, p)
		if got := r.Bool(p); got != want || r.State() != ref.State() {
			t.Fatalf("draw %d: Bool(%v) = %v, want %v with the same generator state", i, p, got, want)
		}
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestInvalidInputsPanic(t *testing.T) {
	r := rng.New(1)
	mustPanic(t, "Intn(0)", func() { r.Intn(0) })
	mustPanic(t, "Intn(-1)", func() { r.Intn(-1) })
	mustPanic(t, "Int63n(0)", func() { r.Int63n(0) })
	mustPanic(t, "Pick(nil)", func() { r.Pick(nil) })
	mustPanic(t, "Pick of non-positive weights", func() { r.Pick([]float64{0, -1}) })
}

// geometricLoop is the definition Geometric must match: the number of
// Bool(1/m) trials up to and including the first success, capped at 2^20.
func geometricLoop(r *rng.Rand, m float64) int {
	if m <= 1 {
		return 1
	}
	p := 1.0 / m
	n := 1
	for !r.Bool(p) {
		n++
		if n >= 1<<20 {
			break
		}
	}
	return n
}

// TestGeometricMatchesBoolLoop checks Geometric against geometricLoop
// draw for draw: the same result and the same generator state after every
// call, over the means programs use and many seeds.
func TestGeometricMatchesBoolLoop(t *testing.T) {
	means := []float64{1.4, 2.5, 3, 5.76, 10.06, 63}
	for seed := uint64(0); seed < 200; seed++ {
		r, ref := rng.New(seed), rng.New(seed)
		for i := 0; i < 500; i++ {
			m := means[i%len(means)]
			got, want := r.Geometric(m), geometricLoop(ref, m)
			if got != want || r.State() != ref.State() {
				t.Fatalf("seed %d call %d: Geometric(%v) = %d, want %d with the same generator state", seed, i, m, got, want)
			}
		}
	}
	// Edge means: at most 1, and the non-finite ones that never succeed.
	for _, m := range []float64{-2, 0, 1, math.Inf(1), math.NaN()} {
		r, ref := rng.New(5), rng.New(5)
		got, want := r.Geometric(m), geometricLoop(ref, m)
		if got != want || r.State() != ref.State() {
			t.Errorf("Geometric(%v) = %d, want %d with the same generator state", m, got, want)
		}
	}
}
