package bpred

// Checkpoint (warm-state snapshot) codecs. Geometry (table sizes,
// associativity, masks) is rebuilt from the configuration by the caller;
// only dynamic contents are serialized. Decoding validates the dynamic
// state against the receiver's geometry so a snapshot taken under a
// different configuration fails loudly instead of corrupting tables.
//
// All of this is cold-path code: it runs once per warm-up group, never
// inside the cycle loop.

import "smtfetch/internal/snap"

func snapCounters(c *snap.Codec, cs []counter) {
	if c.Table(len(cs), "bpred: counter table") {
		for i := range cs {
			snap.U8(c, &cs[i])
		}
	}
}

// Snap codes the gshare counter table.
func (g *GShare) Snap(c *snap.Codec) { snapCounters(c, g.table) }

// Snap codes the three gskew banks.
func (g *GSkew) Snap(c *snap.Codec) {
	for b := range g.banks {
		snapCounters(c, g.banks[b])
	}
}

// Snap codes the BTB contents and hit statistics.
func (b *BTB) Snap(c *snap.Codec) {
	if c.Table(len(b.tags), "bpred: BTB") {
		for i := range b.tags {
			c.U64(&b.tags[i])
			c.Bool(&b.valid[i])
			snap.U8(c, &b.data[i].Kind)
			snap.U64(c, &b.data[i].Target)
			c.U64(&b.lru[i])
		}
	}
	c.U64(&b.stamp)
	c.U64(&b.Lookups)
	c.U64(&b.Hits)
}

// Snap codes the FTB contents and hit statistics.
func (f *FTB) Snap(c *snap.Codec) {
	if c.Table(len(f.tags), "bpred: FTB") {
		for i := range f.tags {
			c.U64(&f.tags[i])
			c.Bool(&f.valid[i])
			c.Int(&f.data[i].Instrs)
			snap.U8(c, &f.data[i].Kind)
			snap.U64(c, &f.data[i].Target)
			c.U8(&f.data[i].fallthroughs)
			c.U64(&f.lru[i])
		}
	}
	c.U64(&f.stamp)
	c.U64(&f.Lookups)
	c.U64(&f.Hits)
}

// Snap codes the RAS entries and stack position.
func (r *RAS) Snap(c *snap.Codec) {
	if c.Table(len(r.entries), "bpred: RAS") {
		for i := range r.entries {
			snap.U64(c, &r.entries[i])
		}
	}
	c.Int(&r.top)
	c.Int(&r.depth)
}

// Snap codes a RAS checkpoint value (embedded in FTQ branch records,
// whose fields are unexported outside this package).
func (cp *RASCheckpoint) Snap(c *snap.Codec) {
	c.Int(&cp.top)
	c.Int(&cp.depth)
	snap.U64(c, &cp.val)
}

// Snap codes a path history value.
func (p *PathHistory) Snap(c *snap.Codec) {
	for i := range p.ring {
		c.U32(&p.ring[i])
	}
	c.U8(&p.pos)
}

func (t *streamTable) snap(c *snap.Codec) {
	if c.Table(len(t.tags), "bpred: stream table") {
		for i := range t.tags {
			c.U64(&t.tags[i])
			c.Bool(&t.valid[i])
			c.Int(&t.data[i].pred.Length)
			snap.U64(c, &t.data[i].pred.Next)
			c.Bool(&t.data[i].pred.EndsInReturn)
			c.Bool(&t.data[i].pred.EndsInCall)
			snap.U8(c, &t.data[i].conf)
			c.U64(&t.lru[i])
		}
	}
	c.U64(&t.stamp)
}

// Snap codes both stream-table levels and the lookup statistics.
func (s *StreamPredictor) Snap(c *snap.Codec) {
	s.l1.snap(c)
	s.l2.snap(c)
	c.U64(&s.Lookups)
	c.U64(&s.L2Hits)
	c.U64(&s.L1Hits)
}
