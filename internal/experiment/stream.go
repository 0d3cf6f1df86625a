package experiment

import (
	"encoding/json"
	"fmt"
	"io"
)

// resultStream is the one writer of the results document: WriteJSON
// writes a sorted slice through it, and WriteCells writes results as
// cells finish, never holding more than one Result here.
//
// Write takes results in canonical order (SortResults order) only,
// rejecting an out-of-order or repeated cell rather than silently
// emitting a document that would no longer match a local sweep
// byte-for-byte.
type resultStream struct {
	w      io.Writer
	n      int
	err    error
	closed bool
	last   Result // key fields only; Stats is dropped so it can be freed
}

// newResultStream starts a results document on w. The envelope opens on
// the first write (or at Close for an empty stream), so construction
// itself writes nothing.
func newResultStream(w io.Writer) *resultStream {
	return &resultStream{w: w}
}

// streamHeader is everything the document holds before the schema
// version; streamArrayOpen follows the version when there are results.
const streamHeader = "{\n  \"schema_version\": "
const streamArrayOpen = ",\n  \"results\": [\n"

// Write appends one result to the document. Results must arrive in
// SortResults order.
func (s *resultStream) Write(r Result) error {
	if s.err == nil && !s.closed && s.n > 0 && !lessResult(s.last, r) {
		return s.fail(fmt.Errorf("experiment: result stream: result %s out of order after %s", r.Key(), s.last.Key()))
	}
	return s.write(r)
}

// write appends one result without the order check. WriteJSON uses it
// directly: it sorts first, and a slice holding one cell twice is still
// written (ReadJSON is what rejects such a file).
func (s *resultStream) write(r Result) error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return s.fail(fmt.Errorf("experiment: result stream: write after Close"))
	}
	sep := ",\n"
	if s.n == 0 {
		sep = fmt.Sprintf("%s%d%s", streamHeader, SchemaVersion, streamArrayOpen)
	}
	// Elements sit two indent levels deep; MarshalIndent prefixes every
	// line but the first, which gets the explicit "    " below. This is
	// exactly what an indenting json.Encoder produces for a nested array
	// element (pinned by TestResultStreamMatchesWriteJSON).
	blob, err := json.MarshalIndent(r, "    ", "  ")
	if err != nil {
		return s.fail(err)
	}
	if err := s.writeString(sep + "    "); err != nil {
		return err
	}
	if _, err := s.w.Write(blob); err != nil {
		return s.fail(err)
	}
	s.n++
	r.Stats = nil // keep only the ordering fields alive
	s.last = r
	return nil
}

// Close terminates the document. A stream with zero writes produces an
// empty (non-null) results array.
func (s *resultStream) Close() error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return nil
	}
	s.closed = true
	if s.n == 0 {
		return s.writeString(fmt.Sprintf("%s%d,\n  \"results\": []\n}\n", streamHeader, SchemaVersion))
	}
	return s.writeString("\n  ]\n}\n")
}

func (s *resultStream) writeString(str string) error {
	if _, err := io.WriteString(s.w, str); err != nil {
		return s.fail(err)
	}
	return nil
}

// fail latches the first error; every later call returns it.
func (s *resultStream) fail(err error) error {
	if s.err == nil {
		s.err = err
	}
	return s.err
}
