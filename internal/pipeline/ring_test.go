package pipeline

import (
	"math/rand"
	"testing"
)

// TestUOpRingMatchesSliceModel drives a ring and a reference slice through
// the same randomized operation sequence (fixed seed) and requires
// identical observable state throughout, including at capacity and across
// wraparound.
func TestUOpRingMatchesSliceModel(t *testing.T) {
	const capacity = 24 // not a power of two: Cap, not the backing size, bounds the ring
	r := NewUOpRing(capacity)
	var model []*UOp
	rng := rand.New(rand.NewSource(42))
	next := 0

	check := func(op string) {
		t.Helper()
		if r.Len() != len(model) {
			t.Fatalf("%s: Len = %d, model %d", op, r.Len(), len(model))
		}
		if r.Full() != (len(model) == capacity) {
			t.Fatalf("%s: Full = %v at Len %d, capacity %d", op, r.Full(), len(model), capacity)
		}
		for i := range model {
			if r.At(i) != model[i] {
				t.Fatalf("%s: At(%d) mismatch", op, i)
			}
		}
	}

	for step := 0; step < 20_000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // push, when there is room
			if r.Full() {
				continue
			}
			u := &UOp{GSeq: uint64(next)}
			next++
			r.Push(u)
			model = append(model, u)
			check("push")
		case op < 6: // pop head
			got := r.PopHead()
			var want *UOp
			if len(model) > 0 {
				want, model = model[0], model[1:]
			}
			if got != want {
				t.Fatal("PopHead mismatch")
			}
			check("popHead")
		case op < 7: // pop tail
			got := r.PopTail()
			var want *UOp
			if len(model) > 0 {
				want, model = model[len(model)-1], model[:len(model)-1]
			}
			if got != want {
				t.Fatal("PopTail mismatch")
			}
			check("popTail")
		case op < 9: // filter: keep uops with even GSeq half the time, odd otherwise
			parity := uint64(rng.Intn(2))
			keep := func(u *UOp) bool { return u.GSeq%2 == parity }
			r.Filter(keep)
			out := model[:0]
			for _, u := range model {
				if keep(u) {
					out = append(out, u)
				}
			}
			model = out
			check("filter")
		default: // occasional clear
			if rng.Intn(50) == 0 {
				r.Clear()
				model = model[:0]
				check("clear")
			}
		}
	}
}

// TestUOpRingOverflowPanics pins the fixed capacity: a ring never grows,
// so a push past Cap is a missing backpressure check and must panic.
func TestUOpRingOverflowPanics(t *testing.T) {
	r := NewUOpRing(3)
	for i := 0; i < 3; i++ {
		r.Push(&UOp{})
	}
	if r.Cap() != 3 || !r.Full() {
		t.Fatalf("Cap %d Full %v after 3 pushes", r.Cap(), r.Full())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("push onto a full ring did not panic")
		}
	}()
	r.Push(&UOp{})
}

func TestUOpRingEmptyPops(t *testing.T) {
	r := NewUOpRing(4)
	if r.PopHead() != nil || r.PopTail() != nil {
		t.Fatal("pop on empty ring returned a uop")
	}
	u := &UOp{}
	r.Push(u)
	if r.PopHead() != u || r.Len() != 0 {
		t.Fatal("single push/pop broken")
	}
}

// TestROBSquashYoungerOrder checks shared-count accounting and that squash
// removes exactly the strictly-younger tail of one thread.
func TestROBSquashYoungerOrder(t *testing.T) {
	rob := NewROB(16, 2)
	var t0 []*UOp
	for g := uint64(1); g <= 6; g++ {
		u := &UOp{GSeq: g, Thread: int(g % 2)}
		if !rob.Dispatch(u) {
			t.Fatal("dispatch failed below capacity")
		}
		if u.Thread == 0 {
			t0 = append(t0, u)
		}
	}
	// Thread 0 holds GSeq 2,4,6. Squash younger than 2: drops 4 and 6.
	squashed := rob.SquashYounger(0, 2, nil)
	if len(squashed) != 2 {
		t.Fatalf("squashed %d uops, want 2", len(squashed))
	}
	for _, u := range squashed {
		if !u.Squashed || u.Thread != 0 || u.GSeq <= 2 {
			t.Fatalf("bad squash victim %+v", u)
		}
	}
	if rob.Len() != 4 || rob.LenOf(0) != 1 || rob.LenOf(1) != 3 {
		t.Fatalf("occupancy after squash: total %d t0 %d t1 %d", rob.Len(), rob.LenOf(0), rob.LenOf(1))
	}
	if rob.Head(0) != t0[0] {
		t.Fatal("thread 0 head changed by tail squash")
	}
}
