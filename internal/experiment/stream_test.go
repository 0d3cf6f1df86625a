package experiment

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"

	"smtfetch/internal/config"
	"smtfetch/internal/stats"
)

// streamResults is a mixed fixture: full-stats cells, an error cell (nil
// Stats), a sampled cell, and an error string with HTML-escapable
// characters — every shape a merged cluster document can contain.
func streamResults() []Result {
	full := &stats.Snapshot{
		Cycles: 5000, Fetched: 9000, Committed: 8000,
		IPC: 1.6, IPFC: 1.8, AvgFetchBlockLen: 3.5,
		CondBranches: 700, CondMispredicts: 70, CondAccuracy: 0.9,
		ICacheMissRate: 0.0125,
		PerThread: []stats.ThreadSnapshot{
			{Fetched: 4500, Committed: 4000, CondAccuracy: 0.91},
			{Fetched: 4500, Committed: 4000, CondAccuracy: 0.89},
		},
	}
	return []Result{
		{Workload: "2_MIX", Engine: "smt", Policy: "ICOUNT.1.8", Seed: 1, IPC: 1.6, IPFC: 1.8, CondAccuracy: 0.9, Stats: full},
		{Workload: "2_MIX", Engine: "smt", Policy: "ICOUNT.1.8", Seed: 7, IPC: 1.61, IPFC: 1.81, CondAccuracy: 0.9, Stats: full},
		{Workload: "2_MIX", Engine: "smt", Policy: "RR.1.8", Seed: 1, Error: "engine exploded: <oob> & \"panic\""},
		{Workload: "4_INT", Engine: "smt", Policy: "ICOUNT.1.8", Seed: 1, IPC: 2.0, IPFC: 2.2, CondAccuracy: 0.95,
			SampleIntervals: 12, IPCCI95: 0.03, Stats: full},
	}
}

// encoderDocument is the reference writer the stream is checked against:
// the results envelope through an indenting json.Encoder, independent of
// resultStream's hand-assembled bytes.
func encoderDocument(t *testing.T, rs []Result) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resultsFile{SchemaVersion: SchemaVersion, Results: rs}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestResultStreamMatchesWriteJSON pins the streamed writer against an
// independent one: writing results one at a time through resultStream
// yields the exact bytes json.Encoder produces for the same slice, and
// MarshalJSONResults (which writes through the stream) agrees.
func TestResultStreamMatchesWriteJSON(t *testing.T) {
	rs := streamResults()
	SortResults(rs)
	want := encoderDocument(t, rs)

	var buf bytes.Buffer
	s := newResultStream(&buf)
	for _, r := range rs {
		if err := s.Write(r); err != nil {
			t.Fatalf("Write(%s): %v", r.Key(), err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("streamed document differs from json.Encoder\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got, err := MarshalJSONResults(rs); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("MarshalJSONResults differs from json.Encoder (err %v)\ngot:\n%s\nwant:\n%s", err, got, want)
	}
}

// TestBaselineRoundTrip pins the writer to the checked-in bytes: reading
// the sweep baseline and writing it back reproduces the file exactly.
func TestBaselineRoundTrip(t *testing.T) {
	const path = "../../baselines/sweep_baseline.json"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ReadJSONFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MarshalJSONResults(rs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rewriting %s changed it (%d bytes in, %d out)", path, len(want), len(got))
	}
}

func TestResultStreamEmpty(t *testing.T) {
	want := encoderDocument(t, []Result{})
	var buf bytes.Buffer
	s := newResultStream(&buf)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("empty stream = %q, want %q", buf.Bytes(), want)
	}
	// Close is idempotent; Write after Close is an error.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Write(Result{}); err == nil || !strings.Contains(err.Error(), "after Close") {
		t.Fatalf("Write after Close = %v, want write-after-close error", err)
	}
}

// TestResultStreamRejectsOutOfOrder: the stream refuses to emit a
// document that would not match a local sweep, rather than silently
// reordering or accepting.
func TestResultStreamRejectsOutOfOrder(t *testing.T) {
	rs := streamResults()
	SortResults(rs)
	var buf bytes.Buffer
	s := newResultStream(&buf)
	if err := s.Write(rs[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(rs[0]); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("out-of-order Write = %v, want out-of-order error", err)
	}
	// A duplicate key is also out of order (not strictly greater).
	var buf2 bytes.Buffer
	s2 := newResultStream(&buf2)
	if err := s2.Write(rs[0]); err != nil {
		t.Fatal(err)
	}
	if err := s2.Write(rs[0]); err == nil {
		t.Fatal("duplicate Write succeeded, want error")
	}
}

// TestSortCellsAgreesWithSortResults: executing cells in sortCells order
// produces results already in SortResults order — the invariant
// WriteCells stands on.
func TestSortCellsAgreesWithSortResults(t *testing.T) {
	var cells []Cell
	engines := []config.Engine{config.GShareBTB, config.StreamFetch, config.GSkewFTB}
	pols := []config.FetchPolicy{config.ICount18, config.RR18, config.ICount28}
	for _, w := range []string{"2_MIX", "4_INT", "2_INT"} {
		for _, e := range engines {
			for _, p := range pols {
				for _, seed := range []uint64{2, 10, 1} {
					cells = append(cells, Cell{Workload: w, Engine: e, Policy: p, Seed: seed})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })

	sortCells(cells)
	rs := make([]Result, len(cells))
	for i, c := range cells {
		rs[i] = Result{Workload: c.Workload, Engine: c.Engine.String(), Policy: c.Policy.String(), Seed: c.Seed}
	}
	sorted := make([]Result, len(rs))
	copy(sorted, rs)
	SortResults(sorted)
	for i := range rs {
		if rs[i].Key() != sorted[i].Key() {
			t.Fatalf("order diverges at %d: sortCells gave %s, SortResults wants %s", i, rs[i].Key(), sorted[i].Key())
		}
	}
}
