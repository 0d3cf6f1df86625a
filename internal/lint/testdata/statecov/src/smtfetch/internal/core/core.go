// Package core is a fixture stand-in for the real core package: its
// import path puts it in the snapshot set, so statecov audits every
// struct with both a write- and a read-path method, or a two-way Snap
// method.
package core

// Codec stands in for snap.Codec: one value both writes and restores.
type Codec struct{}

// Int codes one int in either direction.
func (c *Codec) Int(p *int) {}

// Table is snapshot state through its two-way Snap method alone: a field
// the method codes is covered in both directions, one it leaves out is
// reported. A transient directive trailing ways covers ways alone, so mru
// below it is still audited.
type Table struct {
	covered int
	nested  int
	missing int // want "neither the snapshot-write nor the restore-read path"
	//smtfetch:transient geometry, fixed at construction
	size int
	ways int //smtfetch:transient geometry, fixed at construction
	mru  int // want "neither the snapshot-write nor the restore-read path"
}

// Snap codes covered directly and nested through an unexported helper.
func (t *Table) Snap(c *Codec) {
	c.Int(&t.covered)
	t.snapNested(c)
}

func (t *Table) snapNested(c *Codec) { c.Int(&t.nested) }

// Machine is snapshot state: it has both a write- and a read-path method.
type Machine struct {
	good      int
	writeOnly int // want "written by the snapshot path but never restored"
	readOnly  int // want "restored but never written by the snapshot path"
	missing   int // want "neither the snapshot-write nor the restore-read path"
	//smtfetch:transient per-cycle scratch, recomputed before first use
	scratch []int
}

// Snapshot covers good through a helper on the write closure, and the
// thread states through encodeThreads.
func (m *Machine) Snapshot(ts []threadState) {
	m.encodeCore()
	_ = m.writeOnly
	encodeThreads(ts)
}

// Restore covers good directly on the read path, and the thread states
// through decodeThreads.
func (m *Machine) Restore(ts []threadState) {
	m.good = 0
	_ = m.readOnly
	decodeThreads(ts)
}

func (m *Machine) encodeCore() { _ = m.good }

// threadState has no codec methods of its own; the extras table makes it
// snapshot state because the real core serializes it inline.
type threadState struct {
	icount int
	stale  int // want "neither the snapshot-write nor the restore-read path"
}

func encodeThreads(ts []threadState) {
	for i := range ts {
		_ = ts[i].icount
	}
}

func decodeThreads(ts []threadState) {
	for i := range ts {
		ts[i].icount = 0
	}
}

// scratchPad has no snapshot methods at all, so statecov ignores it even
// though nothing serializes its field.
type scratchPad struct {
	buf []int
}

// use keeps the fixture free of genuinely dead code paths.
func use(p *scratchPad) {
	_ = p.buf
}
