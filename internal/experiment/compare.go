package experiment

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Delta is the comparison of one cell across two results files.
type Delta struct {
	Key string `json:"key"`

	OldIPC float64 `json:"old_ipc"`
	NewIPC float64 `json:"new_ipc"`
	// RelChange is (new-old)/old; nil when the old IPC is zero (a NaN
	// here would make the whole Report unmarshalable) or when either side
	// errored (an error cell's IPC 0 is a failure marker, not a value).
	RelChange *float64 `json:"rel_change,omitempty"`

	// Regression marks the only seed pair of its cell-group as dropped
	// beyond the comparison tolerance.
	Regression bool `json:"regression"`
	// MissingIn is "old" or "new" when the cell exists on only one side.
	MissingIn string `json:"missing_in,omitempty"`

	// OldError / NewError carry the cell's failure message on each side.
	// A cell with a non-empty error never enters the IPC comparison: its
	// recorded IPC of 0 is a failure marker, and treating it as a value
	// would let an errored baseline wave any new number through the gate.
	OldError string `json:"old_error,omitempty"`
	NewError string `json:"new_error,omitempty"`
	// Errored marks an ok-to-error transition: the cell succeeded in old
	// and failed in new. It fails the gate exactly like a regression.
	Errored bool `json:"errored,omitempty"`
}

// GroupDelta is the paired comparison of one (workload, engine, policy)
// cell-group with at least two seed pairs, or of a group that has ok
// cells on both sides but no seed in common.
type GroupDelta struct {
	// Key is the group identity: workload/engine/policy, no seed.
	Key string `json:"key"`

	// Ratio summarizes the per-seed IPC ratios new/old over the group's
	// pairs: the seeds both sides ran ok, with a nonzero old IPC.
	Ratio Summary `json:"ratio"`

	// Regression marks a group whose 95% ratio interval lies wholly
	// below 1−tol.
	Regression bool `json:"regression"`
	// Unpaired marks a group with ok cells on both sides and no seed in
	// common: there is nothing to pair, so the gate fails rather than
	// let the group through unjudged.
	Unpaired bool `json:"unpaired,omitempty"`
}

// Report aggregates a comparison. It is the CI perf gate: a sweep is
// compared against the checked-in baseline and the build fails on
// Regressions > 0, Unpaired > 0, or Errored > 0.
type Report struct {
	Tolerance float64 `json:"tolerance"`
	// Deltas holds the per-cell rows: missing and errored cells, zero-IPC
	// baselines, and the pair of every one-pair group.
	Deltas      []Delta `json:"deltas"`
	Regressions int     `json:"regressions"`
	Missing     int     `json:"missing"`
	// Errored counts ok-to-error transitions (cells that succeeded in old
	// and failed in new); error-to-ok and error-to-error cells are visible
	// in their Deltas but do not fail the gate.
	Errored int `json:"errored"`
	// Unpaired counts the groups that GroupDelta.Unpaired marks.
	Unpaired int `json:"unpaired,omitempty"`

	// Groups holds one row per group with two or more pairs, and one per
	// unpaired group; empty (and absent from the JSON) on single-seed
	// files that share their seeds.
	Groups []GroupDelta `json:"groups,omitempty"`
}

// Err returns the gate verdict: non-nil when the report carries
// regressions, unpaired groups or ok-to-error cells.
func (rep Report) Err() error {
	var parts []string
	if rep.Regressions > 0 {
		parts = append(parts, fmt.Sprintf("%d IPC regressions beyond %.1f%% tolerance", rep.Regressions, 100*rep.Tolerance))
	}
	if rep.Unpaired > 0 {
		parts = append(parts, fmt.Sprintf("%d cell-groups with no seed in common", rep.Unpaired))
	}
	if rep.Errored > 0 {
		parts = append(parts, fmt.Sprintf("%d cells newly errored", rep.Errored))
	}
	if len(parts) == 0 {
		return nil
	}
	return errors.New(strings.Join(parts, ", "))
}

// keyResults indexes results by cell key, rejecting duplicates: a file
// with two entries for the same cell is ambiguous (last-one-wins would
// silently drop data), matching the strictness Sweep.Validate applies to
// grids before they run.
func keyResults(side string, rs []Result) (map[string]Result, error) {
	byKey := make(map[string]Result, len(rs))
	for _, r := range rs {
		k := r.Key()
		if _, dup := byKey[k]; dup {
			return nil, fmt.Errorf("experiment: duplicate cell %s in %s results", k, side)
		}
		byKey[k] = r
	}
	return byKey, nil
}

// pairing collects one cell-group's seed pairs, in canonical seed order
// so the floating-point sums are deterministic.
type pairing struct {
	ratios []float64 // new/old per pair, for the report
	// scaled holds new/(old·(1−tol)) per pair, the verdict's input: its
	// comparison against 1 is exact where the ratios' against 1−tol would
	// round.
	scaled                []float64
	okOld, okNew, matched bool
	regression            bool
}

// Compare matches two result sets by cell key and flags IPC regressions
// with one rule. For each (workload, engine, policy) group it pairs old
// and new cells by seed — both sides simulate the same program there,
// since the seed comes from the cell key — takes the per-seed IPC ratios
// new/old, and flags the group when the upper bound of their 95%
// t-interval lies below 1−tol (tol is a fraction: 0.02 tolerates a 2%
// drop). Improvements are never flagged.
//
// The rule is evaluated on the ratios divided by 1−tol against 1, so one
// pair — a point interval — reduces exactly to the per-cell check
// new < old·(1−tol). A one-pair group reports that pair as a per-cell
// Delta; a group of two or more pairs reports one GroupDelta instead of
// per-cell rows.
//
// Errored cells and zero-IPC baselines never form pairs. Cells present on
// only one side are reported as missing, never as regressions; cells that
// errored on either side are surfaced via the delta's OldError/NewError,
// with an ok-to-error transition counting in Report.Errored. A group with
// ok cells on both sides but no seed in common is Unpaired. Each of these
// fails Report.Err.
//
// Duplicate cell keys on either side are an error, and so is a tolerance
// that would switch the gate off: NaN, infinite, or at least 1. A negative
// tolerance clamps to 0.
func Compare(old, new []Result, tol float64) (Report, error) {
	if math.IsNaN(tol) || math.IsInf(tol, 0) || tol >= 1 {
		return Report{}, fmt.Errorf("experiment: tolerance %v must be finite and below 1", tol)
	}
	tol = max(tol, 0)
	oldByKey, err := keyResults("old", old)
	if err != nil {
		return Report{}, err
	}
	newByKey, err := keyResults("new", new)
	if err != nil {
		return Report{}, err
	}

	// One representative result per unique cell key, in canonical
	// (workload, engine, policy, numeric seed) order — the same order
	// SortResults gives tables and JSON, so report rows match even on
	// multi-seed files where a lexical key sort would stray.
	reps := make([]Result, 0, len(oldByKey)+len(newByKey))
	reps = append(reps, old...)
	for _, r := range new {
		if _, dup := oldByKey[r.Key()]; !dup {
			reps = append(reps, r)
		}
	}
	sort.Slice(reps, func(i, j int) bool { return lessResult(reps[i], reps[j]) })

	thresh := 1 - tol
	var order []string
	groups := make(map[string]*pairing)
	for _, rc := range reps {
		k, gk := rc.Key(), rc.GroupKey()
		g, ok := groups[gk]
		if !ok {
			g = &pairing{}
			groups[gk] = g
			order = append(order, gk)
		}
		o, inOld := oldByKey[k]
		n, inNew := newByKey[k]
		okOld, okNew := inOld && o.Error == "", inNew && n.Error == ""
		g.okOld = g.okOld || okOld
		g.okNew = g.okNew || okNew
		if okOld && okNew {
			g.matched = true
			if o.IPC != 0 {
				g.ratios = append(g.ratios, n.IPC/o.IPC)
				g.scaled = append(g.scaled, n.IPC/(o.IPC*thresh))
			}
		}
	}

	rep := Report{Tolerance: tol}
	for _, gk := range order {
		g := groups[gk]
		s := summarize(g.scaled)
		g.regression = s.N > 0 && s.CIHigh < 1
		if g.regression {
			rep.Regressions++
		}
		switch {
		case s.N >= 2:
			rep.Groups = append(rep.Groups, GroupDelta{Key: gk, Ratio: summarize(g.ratios), Regression: g.regression})
		case g.okOld && g.okNew && !g.matched:
			rep.Unpaired++
			rep.Groups = append(rep.Groups, GroupDelta{Key: gk, Unpaired: true})
		}
	}

	for _, rc := range reps {
		k := rc.Key()
		g := groups[rc.GroupKey()]
		o, inOld := oldByKey[k]
		n, inNew := newByKey[k]
		d := Delta{Key: k, OldIPC: o.IPC, NewIPC: n.IPC}
		switch {
		case !inOld:
			d.MissingIn = "old"
			rep.Missing++
		case !inNew:
			d.MissingIn = "new"
			rep.Missing++
		case o.Error != "" || n.Error != "":
			d.OldError = o.Error
			d.NewError = n.Error
			if o.Error == "" && n.Error != "" {
				d.Errored = true
				rep.Errored++
			}
		case o.IPC == 0:
			// A zero baseline is no pair: no ratio, never a regression.
		case len(g.ratios) >= 2:
			continue // reported by the group's row
		default:
			rc := (n.IPC - o.IPC) / o.IPC
			d.RelChange = &rc
			d.Regression = g.regression
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	return rep, nil
}

// ipcCell renders one side's IPC for the per-cell table; a side the cell
// is missing from renders blank — its zero-value Result carries a
// fabricated IPC of 0 that must not be readable as a measured value.
func ipcCell(d Delta, side string) string {
	if d.MissingIn == side {
		return ""
	}
	if side == "old" {
		return fmt.Sprintf("%.3f", d.OldIPC)
	}
	return fmt.Sprintf("%.3f", d.NewIPC)
}

// String renders the report: the group table (when any groups exist)
// with the mean per-seed IPC change and its 95% CI half-width, then the
// per-cell table, then a one-line verdict. Reports without groups — every
// single-seed comparison — render exactly as they did before seed
// replication existed.
func (rep Report) String() string {
	var b strings.Builder
	if len(rep.Groups) > 0 {
		rows := [][]string{{"GROUP", "PAIRS", "CHANGE", "CHANGE.CI95", "FLAG"}}
		for _, g := range rep.Groups {
			change, ci, flag := "n/a", "n/a", ""
			if g.Unpaired {
				flag = "UNPAIRED: no seed in common"
			} else {
				change = fmt.Sprintf("%+.2f%%", 100*(g.Ratio.Mean-1))
				ci = fmt.Sprintf("±%.2f%%", 100*g.Ratio.CIHalfWidth())
				if g.Regression {
					flag = "REGRESSION"
				}
			}
			rows = append(rows, []string{g.Key, fmt.Sprintf("%d", g.Ratio.N), change, ci, flag})
		}
		b.WriteString(renderAligned(rows))
		b.WriteByte('\n')
	}
	if len(rep.Deltas) > 0 || len(rep.Groups) == 0 {
		rows := [][]string{{"CELL", "OLD.IPC", "NEW.IPC", "CHANGE", "FLAG"}}
		for _, d := range rep.Deltas {
			change, flag := "", ""
			switch {
			case d.MissingIn != "":
				flag = "missing in " + d.MissingIn
			case d.Errored:
				change = "n/a"
				flag = "ERROR(new): " + d.NewError
			case d.OldError != "" && d.NewError != "":
				change = "n/a"
				flag = "error on both sides"
			case d.OldError != "":
				change = "n/a"
				flag = "error in old: " + d.OldError
			case d.RelChange == nil:
				change = "n/a"
			default:
				change = fmt.Sprintf("%+.2f%%", 100**d.RelChange)
				if d.Regression {
					flag = "REGRESSION"
				}
			}
			rows = append(rows, []string{
				d.Key,
				ipcCell(d, "old"),
				ipcCell(d, "new"),
				change,
				flag,
			})
		}
		b.WriteString(renderAligned(rows))
	}
	compared := fmt.Sprintf("%d cells", len(rep.Deltas))
	if len(rep.Groups) > 0 {
		compared += fmt.Sprintf(" and %d cell-groups", len(rep.Groups))
	}
	fmt.Fprintf(&b, "%s compared, %d regressions (tolerance %.1f%%), %d newly errored, %d missing",
		compared, rep.Regressions, 100*rep.Tolerance, rep.Errored, rep.Missing)
	if rep.Unpaired > 0 {
		fmt.Fprintf(&b, ", %d unpaired", rep.Unpaired)
	}
	b.WriteByte('\n')
	return b.String()
}
