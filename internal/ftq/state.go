package ftq

// Warm-state snapshot support. Requests are serialized by content only;
// pool bookkeeping (refs, epoch, free list) is never written. On restore
// the core acquires fresh requests from the per-thread pools (Pool.Get),
// decodes content into them, and re-establishes reference counts through
// the ordinary Retain/Release protocol, so the pool's identity-validated
// lifetime invariants hold by construction after a round trip.
//
// Cold-path code, outside the cycle loop.

import "smtfetch/internal/snap"

func snapBranchInfo(c *snap.Codec, bi *BranchInfo) {
	c.Bool(&bi.PredTaken)
	snap.U64(c, &bi.PredTarget)
	snap.U8(c, &bi.Resolve)
	c.U64(&bi.GHR)
	bi.RASCp.Snap(c)
	bi.PathCp.Snap(c)
	snap.U64(c, &bi.BlockStart)
	c.Int(&bi.BlockInstrs)
	c.Bool(&bi.StreamPredicted)
	c.Bool(&bi.UsedRAS)
}

// Snap codes the request's content (instructions, branch metadata,
// consumption cursor); pool bookkeeping is excluded. Decoding fills a
// request freshly acquired from a pool (Pool.Get).
func (r *Request) Snap(c *snap.Codec) {
	c.Int(&r.Thread)
	snap.U64(c, &r.Start)
	c.Bool(&r.WrongPath)
	c.Int(&r.Consumed)
	n := r.n
	c.Int(&n)
	if n < 0 || n > MaxInstrs {
		c.Fail("ftq: request length %d out of range", n)
		return
	}
	r.n = n
	for i := 0; i < r.n; i++ {
		r.instrs[i].Snap(c)
		c.U8(&r.brIdx[i])
	}
	nbr := r.nbr
	c.Int(&nbr)
	if nbr < 0 || nbr > maxBranches {
		c.Fail("ftq: branch count %d out of range", nbr)
		return
	}
	r.nbr = nbr
	for i := 0; i < r.nbr; i++ {
		snapBranchInfo(c, &r.branches[i])
	}
}

// BranchSlot returns the instruction index whose metadata record is bi, or
// -1 when bi does not belong to this request. Snapshot encoding uses it to
// re-link uop BranchInfo pointers by (request, instruction) index.
func (r *Request) BranchSlot(bi *BranchInfo) int {
	for i := 0; i < r.n; i++ {
		if r.Branch(i) == bi {
			return i
		}
	}
	return -1
}

// Snap codes the queue as request indices oldest-first, positions in the
// snapshot's request table. Encoding maps each queued request to its
// index with index; decoding pushes the requests lookup returns (taking
// over one reference each, exactly as the prediction stage's Push does)
// onto the receiver, which must be empty.
func (q *Queue) Snap(c *snap.Codec, index func(*Request) int, lookup func(int) *Request) {
	n := q.n
	c.Int(&n)
	if !c.Decoding() {
		q.Each(func(r *Request) {
			i := index(r)
			c.Int(&i)
		})
		return
	}
	if c.Err() != nil {
		return
	}
	if n < 0 || n > q.Cap() {
		c.Fail("ftq: queue length %d exceeds capacity %d", n, q.Cap())
		return
	}
	for range n {
		var i int
		c.Int(&i)
		if c.Err() != nil {
			return
		}
		r := lookup(i)
		if r == nil {
			c.Fail("ftq: queue references unknown request %d", i)
			return
		}
		if !q.Push(r) {
			c.Fail("ftq: queue overflow during restore")
			return
		}
	}
}
