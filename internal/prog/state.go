package prog

// Warm-state snapshot encoders for Stream: the Program (static CFG) is
// rebuilt from the profile and seed by the caller; only the dynamic walk
// state is serialized. Dynamic maps are serialized as sorted key/value
// pairs so the byte stream is independent of Go's map iteration order.
//
// Cold-path code, outside the cycle loop.

import (
	"sort"

	"smtfetch/internal/isa"
	"smtfetch/internal/snap"
)

func encodeIntMap(w *snap.Writer, m map[int]int) {
	keys := make([]int, 0, len(m))
	//smtfetch:commutative keys are collected and sorted before encoding
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.Int(k)
		w.Int(m[k])
	}
}

func encodeU64Map(w *snap.Writer, m map[int]uint64) {
	keys := make([]int, 0, len(m))
	//smtfetch:commutative keys are collected and sorted before encoding
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.Int(k)
		w.U64(m[k])
	}
}

// EncodeState serializes the stream's dynamic walk state. The lookahead
// buffer is written with the consumed prefix dropped (head normalized to
// zero), which is behaviourally identical and keeps the artifact compact.
func (s *Stream) EncodeState(w *snap.Writer) {
	st := s.r.State()
	for _, v := range st {
		w.U64(v)
	}
	w.Int(int(s.blk.index))
	w.Int(s.off)
	encodeIntMap(w, s.loopCounts)
	encodeU64Map(w, s.strideOffs)
	w.U64(uint64(len(s.callStack)))
	for _, a := range s.callStack {
		w.U64(uint64(a))
	}
	w.U64(s.hist)
	w.Int(s.sinceLoad)
	pending := s.buf[s.head:]
	w.U64(uint64(len(pending)))
	for i := range pending {
		pending[i].EncodeState(w)
	}
	w.U64(s.Generated)
	w.U64(s.Branches)
	w.U64(s.TakenBranches)
}

// DecodeState restores the stream's dynamic walk state. The receiver must
// have been built over the identical Program.
func (s *Stream) DecodeState(r *snap.Reader) {
	var st [4]uint64
	for i := range st {
		st[i] = r.U64()
	}
	s.r.SetState(st)
	bi := r.Int()
	if r.Err() != nil {
		return
	}
	if bi < 0 || bi >= len(s.prog.blocks) {
		r.Fail("prog: block index %d out of range (%d blocks)", bi, len(s.prog.blocks))
		return
	}
	s.blk = &s.prog.blocks[bi]
	s.off = r.Int()
	n := r.Len()
	clear(s.loopCounts)
	for i := 0; i < n; i++ {
		k := r.Int()
		s.loopCounts[k] = r.Int()
	}
	n = r.Len()
	clear(s.strideOffs)
	for i := 0; i < n; i++ {
		k := r.Int()
		s.strideOffs[k] = r.U64()
	}
	n = r.Len()
	if r.Err() != nil {
		return
	}
	s.callStack = s.callStack[:0]
	for i := 0; i < n; i++ {
		s.callStack = append(s.callStack, isa.Addr(r.U64()))
	}
	s.hist = r.U64()
	s.sinceLoad = r.Int()
	n = r.Len()
	if r.Err() != nil {
		return
	}
	s.buf = s.buf[:0]
	s.head = 0
	for i := 0; i < n; i++ {
		var in isa.Instruction
		in.DecodeState(r)
		s.buf = append(s.buf, in)
	}
	s.Generated = r.U64()
	s.Branches = r.U64()
	s.TakenBranches = r.U64()
}
