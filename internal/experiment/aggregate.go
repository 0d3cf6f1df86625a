package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Summary is the replication statistics of one metric across a group's
// seeds: sample size, mean, sample standard deviation, and the two-sided
// 95% confidence interval of the mean (Student t). With fewer than two
// samples the interval degenerates to the point estimate (Stddev 0,
// CILow == CIHigh == Mean): a single run carries no spread information.
// Compare relies on that: one seed pair's interval is the pair itself.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	CILow  float64 `json:"ci_low"`
	CIHigh float64 `json:"ci_high"`
}

// CIHalfWidth is the half-width of the 95% confidence interval; zero for
// degenerate (n < 2 or zero-variance) summaries.
func (s Summary) CIHalfWidth() float64 {
	return (s.CIHigh - s.CILow) / 2
}

// tTable95 holds the two-sided 95% Student-t critical values indexed by
// degrees of freedom (index 0 unused).
var tTable95 = [...]float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCrit95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom. Past the table it returns the value of the next
// lower tabulated row (30, 40, 60, 120), which is at least the exact
// value: between rows the interval errs wide, never narrow.
func tCrit95(df int) float64 {
	switch {
	case df <= 0:
		return 0
	case df < len(tTable95):
		return tTable95[df]
	case df <= 40:
		return 2.042
	case df <= 60:
		return 2.021
	case df <= 120:
		return 2.000
	default:
		return 1.980
	}
}

// summarize computes the replication statistics of one metric. The values
// are consumed in the caller's order; Aggregate and Compare always pass
// them in SortResults order, so the floating-point sums — and therefore
// the emitted JSON — do not depend on the input file's ordering.
func summarize(vals []float64) Summary {
	n := len(vals)
	if n == 0 {
		return Summary{}
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(n)
	s := Summary{N: n, Mean: mean, CILow: mean, CIHigh: mean}
	if n < 2 {
		return s
	}
	var sq float64
	for _, v := range vals {
		d := v - mean
		sq += d * d
	}
	s.Stddev = math.Sqrt(sq / float64(n-1))
	h := tCrit95(n-1) * s.Stddev / math.Sqrt(float64(n))
	s.CILow, s.CIHigh = mean-h, mean+h
	return s
}

// Group is the aggregate of one (workload, engine, policy) cell-group
// across the seed axis: which seeds contributed, how many cells errored
// (excluded from the statistics), and the per-metric summaries.
type Group struct {
	Workload string `json:"workload"`
	Engine   string `json:"engine"`
	Policy   string `json:"policy"`
	// Seeds lists the replications that entered the statistics, in
	// ascending order; errored cells' seeds are not included.
	Seeds []uint64 `json:"seeds"`
	// Errors counts the group's failed cells, which carry no measured
	// values and are excluded from every Summary.
	Errors int `json:"errors,omitempty"`

	IPC          Summary `json:"ipc"`
	IPFC         Summary `json:"ipfc"`
	CondAccuracy Summary `json:"cond_accuracy"`
}

// Key is the group's identity string — a cell key without the seed axis.
func (g Group) Key() string {
	return g.Workload + "/" + g.Engine + "/" + g.Policy
}

// Aggregate groups results by (workload, engine, policy) across the seed
// axis and computes replication statistics for IPC, IPFC, and conditional
// branch accuracy. Error cells are counted per group but excluded from the
// statistics. The returned groups are sorted by (workload, engine,
// policy), and the computation is deterministic in the input's multiset of
// results — input order does not matter.
func Aggregate(rs []Result) []Group {
	sorted := make([]Result, len(rs))
	copy(sorted, rs)
	SortResults(sorted)

	type bucket struct {
		g              Group
		ipc, ipfc, acc []float64
	}
	var order []string
	buckets := make(map[string]*bucket)
	for _, r := range sorted {
		gk := r.GroupKey()
		b, ok := buckets[gk]
		if !ok {
			b = &bucket{g: Group{Workload: r.Workload, Engine: r.Engine, Policy: r.Policy}}
			buckets[gk] = b
			order = append(order, gk)
		}
		if r.Error != "" {
			b.g.Errors++
			continue
		}
		b.g.Seeds = append(b.g.Seeds, r.Seed)
		b.ipc = append(b.ipc, r.IPC)
		b.ipfc = append(b.ipfc, r.IPFC)
		b.acc = append(b.acc, r.CondAccuracy)
	}

	groups := make([]Group, 0, len(order))
	for _, gk := range order {
		b := buckets[gk]
		b.g.IPC = summarize(b.ipc)
		b.g.IPFC = summarize(b.ipfc)
		b.g.CondAccuracy = summarize(b.acc)
		groups = append(groups, b.g)
	}
	return groups
}

// aggregateFile is the on-disk schema for aggregated results: a versioned
// envelope, like resultsFile, so the format can evolve without breaking
// readers.
type aggregateFile struct {
	SchemaVersion int     `json:"aggregate_schema_version"`
	Groups        []Group `json:"groups"`
}

// AggregateSchemaVersion is the current aggregate-JSON schema version.
const AggregateSchemaVersion = 1

// WriteAggregateJSON writes groups (indented, versioned) to w.
func WriteAggregateJSON(w io.Writer, gs []Group) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(aggregateFile{SchemaVersion: AggregateSchemaVersion, Groups: gs})
}

// MarshalAggregateJSON returns the canonical JSON bytes for groups.
func MarshalAggregateJSON(gs []Group) ([]byte, error) {
	var b strings.Builder
	if err := WriteAggregateJSON(&b, gs); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

// ReadAggregateJSON parses an aggregate file written by WriteAggregateJSON.
func ReadAggregateJSON(r io.Reader) ([]Group, error) {
	var f aggregateFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("experiment: bad aggregate file: %w", err)
	}
	if f.SchemaVersion != AggregateSchemaVersion {
		return nil, fmt.Errorf("experiment: aggregate schema version %d, want %d", f.SchemaVersion, AggregateSchemaVersion)
	}
	return f.Groups, nil
}

// ReadAggregateJSONFile reads an aggregate file from disk.
func ReadAggregateJSONFile(path string) ([]Group, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gs, err := ReadAggregateJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return gs, nil
}

// AggregateTable renders groups as an aligned text table with error bars:
// one row per (workload, engine, policy) group, the IPC mean with its
// sample stddev and 95% CI half-width across seeds. Degenerate columns
// (n < 2) render "-" rather than a fabricated zero spread.
func AggregateTable(gs []Group) string {
	rows := make([][]string, 0, len(gs)+1)
	rows = append(rows, []string{"WORKLOAD", "ENGINE", "POLICY", "N", "IPC", "IPC.SD", "IPC.CI95", "IPFC", "BR.ACC", "ERRORS"})
	for _, g := range gs {
		ipc, sd, ci, ipfc, acc := "-", "-", "-", "-", "-"
		if g.IPC.N > 0 {
			ipc = fmt.Sprintf("%.3f", g.IPC.Mean)
			ipfc = fmt.Sprintf("%.3f", g.IPFC.Mean)
			acc = fmt.Sprintf("%.4f", g.CondAccuracy.Mean)
		}
		if g.IPC.N >= 2 {
			sd = fmt.Sprintf("%.4f", g.IPC.Stddev)
			ci = fmt.Sprintf("%.4f", g.IPC.CIHalfWidth())
		}
		rows = append(rows, []string{
			g.Workload, g.Engine, g.Policy,
			fmt.Sprintf("%d", g.IPC.N),
			ipc, sd, ci, ipfc, acc,
			fmt.Sprintf("%d", g.Errors),
		})
	}
	return renderAligned(rows)
}
