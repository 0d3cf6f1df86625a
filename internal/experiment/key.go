package experiment

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"smtfetch/internal/config"
	"smtfetch/internal/core"
)

// KeyDoc is the canonical key document: every Sweep input besides the cell
// identity that can change a cell's result. Both cache keys derive from
// it — the result key (server.Fingerprint) hashes it whole, and WarmKey
// hashes its warm-up projection — so a field added here reaches both, and
// the keycov lint requires every Sweep field to reach KeyDoc or be
// annotated nonsemantic.
//
// The field names and order are the persisted result-key format: a
// server's cache file is keyed by this document's hash, so renaming or
// reordering a field orphans every stored cell.
type KeyDoc struct {
	ResultSchema  int
	WarmupInstrs  uint64
	WarmupCycles  uint64
	MeasureInstrs uint64
	MaxCycles     uint64
	Sample        string
	WarmFork      string
	Machine       config.Config
}

// KeyDoc builds the sweep's key document. The machine is canonicalized
// once, here: its engine and policy are zeroed because every cell
// overrides them and the cell key carries both.
func (s *Sweep) KeyDoc() KeyDoc {
	mc := config.Default()
	if s.Machine != nil {
		mc = *s.Machine
	}
	mc.Engine = 0
	mc.FetchPolicy = config.FetchPolicy{}
	return KeyDoc{
		ResultSchema:  SchemaVersion,
		WarmupInstrs:  s.WarmupInstrs,
		WarmupCycles:  s.WarmupCycles,
		MeasureInstrs: s.MeasureInstrs,
		MaxCycles:     s.MaxCycles,
		Sample:        s.Sample,
		WarmFork:      s.WarmFork,
		Machine:       mc,
	}
}

// Hash is the hex FNV-64a of the document's JSON: the result-cache
// fingerprint.
func (d KeyDoc) Hash() string { return hashKey(d) }

// WarmKey identifies a warm checkpoint: the hash of the key document's
// warm-up projection plus the snapshot format version and the canonical
// cell's key. The projection drops what only the measured phase reads
// (MeasureInstrs, Sample) and the warm-fork mode (fork and rerun warm
// identically), so every cell whose warm-up is the same shares one
// checkpoint; both warm-up lengths and the result schema stay, so neither
// a different warm-up nor an older simulator can supply a checkpoint. The
// canonical cell key carries the engine and the policy's T.W shape, which warmed
// predictor and cache state depend on. The snapshot version is folded in
// so format bumps invalidate cached blobs instead of failing restores.
func (s *Sweep) WarmKey(c Cell) string {
	return warmKeyAt(core.SnapshotVersion, s.KeyDoc(), c)
}

// warmKeyAt is WarmKey over an explicit snapshot version and key document,
// split out so tests can pin that the snapshot version and the result
// schema are live key components (a bump must change every warm key).
func warmKeyAt(snapshotVersion int, doc KeyDoc, c Cell) string {
	doc.MeasureInstrs, doc.Sample, doc.WarmFork = 0, "", ""
	return hashKey(struct {
		SnapshotVersion int
		Cell            string
		Key             KeyDoc
	}{snapshotVersion, canonicalCell(c).Key(), doc})
}

// hashKey is the hex FNV-64a of v's JSON encoding.
func hashKey(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Key documents are plain structs of scalars; this cannot fail.
		panic(fmt.Sprintf("experiment: key document not serializable: %v", err))
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}
