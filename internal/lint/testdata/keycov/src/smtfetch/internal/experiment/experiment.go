// Package experiment is a fixture stand-in: keycov requires each Sweep
// field to reach KeyDoc's closure or carry a nonsemantic annotation, and
// reports the field itself otherwise.
package experiment

// Cell is the unit of work; its identity is carried by cache keys
// directly, outside the Sweep fields.
type Cell struct{ Workload string }

// Sweep mirrors the real sweep: grid axes, phase lengths, mechanics.
type Sweep struct {
	Workloads []string //smtfetch:nonsemantic grid axis; cell identity enters the keys via the cell

	WarmupInstrs  uint64
	MeasureInstrs uint64
	WarmOnly      uint64 // want "Sweep.WarmOnly never reaches the key document"

	Jobs   int // want "Sweep.Jobs never reaches the key document"
	secret int // want "Sweep.secret never reaches the key document"
}

// KeyDoc is the key document; it covers MeasureInstrs directly and
// WarmupInstrs through a same-package helper.
type KeyDoc struct{ WarmupInstrs, MeasureInstrs uint64 }

// KeyDoc builds the key document.
func (s *Sweep) KeyDoc() KeyDoc {
	return KeyDoc{WarmupInstrs: s.warmup(), MeasureInstrs: s.MeasureInstrs}
}

func (s *Sweep) warmup() uint64 { return s.WarmupInstrs }

// WarmKey reads WarmOnly, but only the key document counts: a field that
// reaches one key and not the document is still reported.
func (s *Sweep) WarmKey(c Cell) string {
	_ = s.WarmOnly
	return c.Workload
}
