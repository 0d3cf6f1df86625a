package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"smtfetch/internal/config"
	"smtfetch/internal/stats"
)

// Result is the outcome of one sweep cell. Engine and Policy are stored as
// their String() names so the JSON is self-describing and stable across
// refactors of the underlying enums.
type Result struct {
	Workload string `json:"workload"`
	Engine   string `json:"engine"`
	Policy   string `json:"policy"`
	Seed     uint64 `json:"seed"`

	IPC          float64 `json:"ipc"`
	IPFC         float64 `json:"ipfc"`
	CondAccuracy float64 `json:"cond_accuracy"`

	// SampleIntervals and IPCCI95 are set when the cell was measured with
	// SMARTS-style sampling (Sweep.Sample): the number of detail intervals
	// and the 95% confidence half-width of the sampled IPC estimate. Both
	// are zero (and omitted from JSON) for full-detail cells.
	SampleIntervals int     `json:"sample_intervals,omitempty"`
	IPCCI95         float64 `json:"ipc_ci95,omitempty"`

	// Stats carries the full counter snapshot; nil when the cell failed.
	Stats *stats.Snapshot `json:"stats,omitempty"`
	// Error is the cell's failure message, empty on success.
	Error string `json:"error,omitempty"`
}

// Cell reconstructs the result's grid cell. Engine/policy names written by
// this package always parse; hand-edited files may not, in which case the
// zero values are returned alongside the name mismatch being detectable via
// Key comparison.
func (r Result) Cell() Cell {
	e, _ := config.ParseEngine(r.Engine)
	p, _ := config.ParseFetchPolicy(r.Policy)
	return Cell{Workload: r.Workload, Engine: e, Policy: p, Seed: r.Seed}
}

// Key is the result's cell identity (see Cell.Key), built from the stored
// names so it works even for results read from files.
func (r Result) Key() string {
	return fmt.Sprintf("%s/%s/%s/%d", r.Workload, r.Engine, r.Policy, r.Seed)
}

// GroupKey is the result's cell-group identity: the cell key without the
// seed axis. Results sharing a GroupKey are replications of one
// configuration and aggregate together (see Aggregate).
func (r Result) GroupKey() string {
	return r.Workload + "/" + r.Engine + "/" + r.Policy
}

// lessResult is the canonical result ordering: workload, engine, policy,
// then numeric seed. SortResults and Compare's delta ordering both use it,
// so tables, JSON, and compare reports agree — including on multi-seed
// files, where a lexical sort of the full key would put seed 10 before 2.
func lessResult(a, b Result) bool {
	if a.Workload != b.Workload {
		return a.Workload < b.Workload
	}
	if a.Engine != b.Engine {
		return a.Engine < b.Engine
	}
	if a.Policy != b.Policy {
		return a.Policy < b.Policy
	}
	return a.Seed < b.Seed
}

// SortResults orders results by cell key: workload, engine, policy, seed.
// Run output is always in this order, making sweep JSON deterministic.
func SortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return lessResult(rs[i], rs[j]) })
}

// lessCell applies the lessResult ordering to not-yet-executed cells,
// comparing the same (workload, engine name, policy name, seed) tuple a
// cell's Result will carry. sortCells therefore pre-orders a cell list so
// that results produced one-by-one in that order are already in
// SortResults order — the property WriteCells depends on.
func lessCell(a, b Cell) bool {
	if a.Workload != b.Workload {
		return a.Workload < b.Workload
	}
	if ae, be := a.Engine.String(), b.Engine.String(); ae != be {
		return ae < be
	}
	if ap, bp := a.Policy.String(), b.Policy.String(); ap != bp {
		return ap < bp
	}
	return a.Seed < b.Seed
}

// sortCells orders cells canonically: the results of executing them in
// this order are in SortResults order.
func sortCells(cells []Cell) {
	sort.Slice(cells, func(i, j int) bool { return lessCell(cells[i], cells[j]) })
}

// resultsFile is the on-disk schema: a versioned envelope so future PRs can
// evolve the format without breaking compare.
type resultsFile struct {
	SchemaVersion int      `json:"schema_version"`
	Results       []Result `json:"results"`
}

// SchemaVersion is the current sweep-JSON schema version. Version 2 marks
// results from the bounded decode/rename pipe: a version-1 IPC came from a
// front end that could over-fetch without limit, so it is neither
// comparable nor servable from a cache.
const SchemaVersion = 2

// WriteJSON writes results (sorted, indented, versioned) to w.
func WriteJSON(w io.Writer, rs []Result) error {
	sorted := slices.Clone(rs)
	SortResults(sorted)
	s := newResultStream(w)
	for _, r := range sorted {
		if err := s.write(r); err != nil {
			return err
		}
	}
	return s.Close()
}

// MarshalJSONResults returns the canonical JSON bytes for results.
func MarshalJSONResults(rs []Result) ([]byte, error) {
	var b bytes.Buffer
	if err := WriteJSON(&b, rs); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// ReadJSON parses a results file written by WriteJSON. Duplicate cell keys
// are rejected: WriteJSON never produces them (Sweep.Validate bans
// duplicate cells), so a file containing two entries for one cell is
// corrupt — most likely a bad hand-merge — and silently keeping either
// entry would make compare verdicts depend on file order.
func ReadJSON(r io.Reader) ([]Result, error) {
	var f resultsFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("experiment: bad results file: %w", err)
	}
	if f.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("experiment: results schema version %d, want %d", f.SchemaVersion, SchemaVersion)
	}
	seen := make(map[string]bool, len(f.Results))
	for _, r := range f.Results {
		k := r.Key()
		if seen[k] {
			return nil, fmt.Errorf("experiment: duplicate cell %s in results file", k)
		}
		seen[k] = true
	}
	return f.Results, nil
}

// ReadJSONFile reads a results file from disk.
func ReadJSONFile(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs, err := ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// Table renders results as an aligned text table, one row per cell.
func Table(rs []Result) string {
	rows := make([][]string, 0, len(rs)+1)
	rows = append(rows, []string{"WORKLOAD", "ENGINE", "POLICY", "SEED", "IPC", "IPFC", "BR.ACC", "I$MISS", "STATUS"})
	for _, r := range rs {
		status := "ok"
		if r.Error != "" {
			status = "ERROR: " + r.Error
		}
		icm := ""
		if r.Stats != nil {
			icm = fmt.Sprintf("%.4f", r.Stats.ICacheMissRate)
		}
		rows = append(rows, []string{
			r.Workload, r.Engine, r.Policy,
			fmt.Sprintf("%d", r.Seed),
			fmt.Sprintf("%.3f", r.IPC),
			fmt.Sprintf("%.3f", r.IPFC),
			fmt.Sprintf("%.4f", r.CondAccuracy),
			icm,
			status,
		})
	}
	return renderAligned(rows)
}

// renderAligned left-justifies each column to its widest entry.
func renderAligned(rows [][]string) string {
	if len(rows) == 0 {
		return ""
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(row)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
