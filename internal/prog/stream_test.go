package prog_test

import (
	"bytes"
	"testing"

	"smtfetch/internal/bench"
	"smtfetch/internal/isa"
	"smtfetch/internal/prog"
	"smtfetch/internal/snap"
)

// walk consumes n instructions the way the fetch unit does, one Peek(0)
// and one Advance(1) at a time. When redirect is set it steers the walk
// like a wrong path: every taken branch is followed to its fall-through,
// as if predicted not taken. check runs before each instruction is taken.
func walk(s *prog.Stream, n int, redirect bool, check func(i int)) []isa.Instruction {
	out := make([]isa.Instruction, n)
	for i := range out {
		check(i)
		out[i] = *s.Peek(0)
		s.Advance(1)
		if in := &out[i]; redirect && in.Class == isa.Branch && in.Taken {
			s.Redirect(in.FallThrough)
		}
	}
	return out
}

// TestStreamLookaheadBounded: the fetch unit never looks past the next
// instruction, so neither a committed stream nor a redirected ghost stream
// may buffer more than one instruction, however long the walk. A walk that
// always looks one further ahead buffers at most two.
func TestStreamLookaheadBounded(t *testing.T) {
	p := prog.Build(bench.MustProfile("gcc"), 3)
	for _, tc := range []struct {
		name     string
		s        *prog.Stream
		redirect bool
		depth    int // deepest Peek before each instruction is taken
	}{
		{"committed", p.NewStream(3), false, 0},
		{"ghost", p.NewStreamAt(5, p.Entry()+64), true, 0},
		{"committed, peeking one ahead", p.NewStream(3), false, 1},
	} {
		walk(tc.s, 100_000, tc.redirect, func(i int) {
			tc.s.Peek(tc.depth)
			if c := prog.BufCap(tc.s); c > tc.depth+1 {
				t.Fatalf("%s stream: lookahead capacity %d after %d instructions, want at most %d", tc.name, c, i, tc.depth+1)
			}
		})
	}
}

// TestStreamLookaheadConsistent: peeking ahead and consuming in uneven
// steps (Advance(0) included) sees the same instructions as the plain walk.
func TestStreamLookaheadConsistent(t *testing.T) {
	p := prog.Build(bench.MustProfile("gcc"), 3)
	want := trace(p, 3, 40_000)
	s := p.NewStream(3)
	for i, pos := 0, 0; pos+8 < len(want); i++ {
		k := i % 5
		if got := *s.Peek(k); got != want[pos+k] {
			t.Fatalf("step %d: Peek(%d) at instruction %d is %+v, want %+v", i, k, pos, got, want[pos+k])
		}
		n := i * 7 % 4
		s.Advance(n)
		pos += n
	}
}

// TestStreamSnapRoundTrip: a stream decoded from its Snap continues
// exactly as the original does, whether an instruction is pending (peeked
// but not consumed), some are left by a partial Advance, or the stream was
// just redirected.
func TestStreamSnapRoundTrip(t *testing.T) {
	p := prog.Build(bench.MustProfile("gcc"), 3)
	for _, tc := range []struct {
		name string
		prep func(s *prog.Stream)
	}{
		{"one pending", func(s *prog.Stream) {
			walk(s, 5_000, false, func(int) {})
			s.Peek(0)
		}},
		{"two pending after a partial advance", func(s *prog.Stream) {
			walk(s, 5_000, false, func(int) {})
			s.Peek(3)
			s.Advance(2)
		}},
		{"after redirect", func(s *prog.Stream) {
			walk(s, 5_000, true, func(int) {})
			s.Peek(0)
			s.Redirect(p.Entry() + 128)
		}},
	} {
		orig := p.NewStream(3)
		tc.prep(orig)
		enc := snap.NewEncoder()
		orig.Snap(enc)
		data := enc.Bytes()

		got := p.NewStream(99)
		dec := snap.NewDecoder(data)
		got.Snap(dec)
		if err := dec.Err(); err != nil || dec.Rest() != 0 {
			t.Fatalf("%s: decode: err %v, %d bytes left", tc.name, err, dec.Rest())
		}
		again := snap.NewEncoder()
		got.Snap(again)
		if !bytes.Equal(again.Bytes(), data) {
			t.Errorf("%s: re-encoding the decoded stream changed its bytes", tc.name)
		}

		want := walk(orig, 10_000, false, func(int) {})
		next := walk(got, 10_000, false, func(int) {})
		for i := range want {
			if next[i] != want[i] {
				t.Fatalf("%s: instruction %d after decode is %+v, want %+v", tc.name, i, next[i], want[i])
			}
		}
	}
}
