package experiment

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func res(workload, engine, policy string, seed uint64, ipc float64) Result {
	return Result{Workload: workload, Engine: engine, Policy: policy, Seed: seed, IPC: ipc}
}

// mustCompare wraps Compare for the tests whose inputs are duplicate-free.
func mustCompare(t *testing.T, old, new []Result, tol float64) Report {
	t.Helper()
	rep, err := Compare(old, new, tol)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	return rep
}

func TestCompareFlagsRegression(t *testing.T) {
	old := []Result{
		res("2_MIX", "stream", "ICOUNT.1.8", 1, 3.00),
		res("2_MIX", "stream", "ICOUNT.2.8", 1, 2.00),
	}
	new_ := []Result{
		res("2_MIX", "stream", "ICOUNT.1.8", 1, 2.80), // -6.7%: regression at 2%
		res("2_MIX", "stream", "ICOUNT.2.8", 1, 1.97), // -1.5%: inside tolerance
	}
	rep := mustCompare(t, old, new_, 0.02)
	if rep.Regressions != 1 {
		t.Fatalf("Regressions = %d, want 1", rep.Regressions)
	}
	if !rep.Deltas[0].Regression || rep.Deltas[1].Regression {
		t.Fatalf("wrong cell flagged: %+v", rep.Deltas)
	}
	if rc := rep.Deltas[0].RelChange; rc == nil || math.Abs(*rc-(-0.2/3.0)) > 1e-12 {
		t.Fatalf("RelChange = %v", rc)
	}
	if rep.Err() == nil {
		t.Fatal("Err() nil despite a regression")
	}
}

func TestCompareImprovementNotFlagged(t *testing.T) {
	old := []Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, 2.00)}
	new_ := []Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, 2.50)}
	rep := mustCompare(t, old, new_, 0.02)
	if rep.Regressions != 0 {
		t.Fatalf("improvement flagged as regression: %+v", rep.Deltas)
	}
	if rep.Err() != nil {
		t.Fatalf("Err() = %v on a clean report", rep.Err())
	}
}

func TestCompareToleranceBoundary(t *testing.T) {
	old := []Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, 1.00)}
	// Exactly at the boundary: new == old*(1-tol) is NOT a regression
	// (strict less-than), so gates don't flap on exact-equal baselines.
	exact := []Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, 0.98)}
	if rep := mustCompare(t, old, exact, 0.02); rep.Regressions != 0 {
		t.Fatal("boundary value flagged")
	}
	below := []Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, 0.9799)}
	if rep := mustCompare(t, old, below, 0.02); rep.Regressions != 1 {
		t.Fatal("below-boundary value not flagged")
	}
	// Negative tolerance is clamped to exact matching.
	if rep := mustCompare(t, old, []Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, 0.999)}, -1); rep.Regressions != 1 {
		t.Fatal("negative tolerance did not clamp to 0")
	}
}

func TestCompareMissingCells(t *testing.T) {
	old := []Result{
		res("2_MIX", "stream", "ICOUNT.1.8", 1, 1.0),
		res("2_MIX", "gshare+BTB", "ICOUNT.1.8", 1, 1.0),
	}
	new_ := []Result{
		res("2_MIX", "stream", "ICOUNT.1.8", 1, 1.0),
		res("4_MIX", "stream", "ICOUNT.1.8", 1, 1.0),
	}
	rep := mustCompare(t, old, new_, 0.02)
	if rep.Missing != 2 {
		t.Fatalf("Missing = %d, want 2", rep.Missing)
	}
	if rep.Regressions != 0 {
		t.Fatal("missing cells counted as regressions")
	}
	var inOld, inNew int
	for _, d := range rep.Deltas {
		switch d.MissingIn {
		case "old":
			inOld++
		case "new":
			inNew++
		}
	}
	if inOld != 1 || inNew != 1 {
		t.Fatalf("missing split old=%d new=%d, want 1/1", inOld, inNew)
	}
}

func TestCompareZeroOldIPC(t *testing.T) {
	old := []Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, 0)}
	new_ := []Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, 1.0)}
	rep := mustCompare(t, old, new_, 0.02)
	if rep.Deltas[0].RelChange != nil {
		t.Fatalf("RelChange for zero baseline = %v, want nil", *rep.Deltas[0].RelChange)
	}
	if rep.Regressions != 0 {
		t.Fatal("zero baseline flagged as regression")
	}
	// A report with a zero-baseline cell must still marshal.
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report with zero-baseline cell does not marshal: %v", err)
	}
	if strings.Contains(mustCompare(t, old, new_, 0.02).String(), "NaN") {
		t.Fatal("report renders NaN")
	}
}

// Regression test for the error-masking bug: a Result with Error != ""
// carries IPC 0, and pre-fix Compare treated that 0 as a real value — an
// error on the old side let any new value pass the gate, and an error on
// the new side showed up as a generic REGRESSION with no failure message.
func TestCompareErrorCells(t *testing.T) {
	okCell := res("2_MIX", "stream", "ICOUNT.1.8", 1, 2.0)
	errCell := okCell
	errCell.IPC = 0
	errCell.Error = "synthetic failure"

	// ok -> error must fail the gate and surface the message.
	rep := mustCompare(t, []Result{okCell}, []Result{errCell}, 0.02)
	if rep.Errored != 1 || !rep.Deltas[0].Errored {
		t.Fatalf("ok->error not counted: %+v", rep)
	}
	if rep.Deltas[0].NewError != "synthetic failure" {
		t.Fatalf("NewError = %q", rep.Deltas[0].NewError)
	}
	if rep.Deltas[0].Regression || rep.Regressions != 0 {
		t.Fatal("error cell double-counted as an IPC regression")
	}
	if rep.Deltas[0].RelChange != nil {
		t.Fatal("error cell got a RelChange from its IPC-0 marker")
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "errored") {
		t.Fatalf("Err() = %v, want errored verdict", err)
	}
	if s := rep.String(); !strings.Contains(s, "ERROR(new): synthetic failure") {
		t.Fatalf("report does not surface the new-side error:\n%s", s)
	}

	// error -> ok is a recovery, not a gate failure — and crucially the
	// old side's IPC 0 must not be compared against the new value.
	rep = mustCompare(t, []Result{errCell}, []Result{okCell}, 0.02)
	if rep.Errored != 0 || rep.Regressions != 0 {
		t.Fatalf("error->ok flagged: %+v", rep)
	}
	if rep.Deltas[0].OldError != "synthetic failure" {
		t.Fatalf("OldError = %q", rep.Deltas[0].OldError)
	}
	if rep.Err() != nil {
		t.Fatalf("Err() = %v for a recovery", rep.Err())
	}

	// error -> error stays visible but does not fail the gate.
	rep = mustCompare(t, []Result{errCell}, []Result{errCell}, 0.02)
	if rep.Errored != 0 || rep.Err() != nil {
		t.Fatalf("error->error failed the gate: %+v", rep)
	}
	if rep.Deltas[0].OldError == "" || rep.Deltas[0].NewError == "" {
		t.Fatal("error->error cell lost its messages")
	}
}

// Regression test for silent duplicate collapse: two entries for the same
// cell used to be merged last-one-wins by the keying maps.
func TestCompareDuplicateKeys(t *testing.T) {
	a := res("2_MIX", "stream", "ICOUNT.1.8", 1, 1.0)
	b := a
	b.IPC = 2.0
	ok := []Result{res("2_MIX", "gshare+BTB", "ICOUNT.1.8", 1, 1.0)}

	if _, err := Compare([]Result{a, b}, ok, 0.02); err == nil || !strings.Contains(err.Error(), "duplicate cell") {
		t.Fatalf("duplicate in old not rejected: %v", err)
	}
	if _, err := Compare(ok, []Result{a, b}, 0.02); err == nil || !strings.Contains(err.Error(), "duplicate cell") {
		t.Fatalf("duplicate in new not rejected: %v", err)
	}
}

func TestReadJSONRejectsDuplicateKeys(t *testing.T) {
	a := res("2_MIX", "stream", "ICOUNT.1.8", 1, 1.0)
	b := a
	b.IPC = 2.0
	blob, err := MarshalJSONResults([]Result{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(strings.NewReader(string(blob))); err == nil || !strings.Contains(err.Error(), "duplicate cell") {
		t.Fatalf("ReadJSON accepted duplicate keys: %v", err)
	}
}

// seeded builds one cell-group's results across a seed list.
func seeded(workload, engine, policy string, ipcs ...float64) []Result {
	rs := make([]Result, len(ipcs))
	for i, ipc := range ipcs {
		rs[i] = res(workload, engine, policy, uint64(i+1), ipc)
	}
	return rs
}

// With one seed pair the paired interval is the pair itself, so the
// verdict must be exactly the per-cell check new < old·(1−tol), exact
// floating-point boundaries and their neighbours included.
func TestCompareOnePairMatchesTolerance(t *testing.T) {
	for _, o := range []float64{0.3, 1, 1.7, 2.9, 3, 7.77} {
		for _, tol := range []float64{-0.5, 0, 0.001, 0.02, 0.1, 0.3, 0.999} {
			bound := o * (1 - max(tol, 0))
			for _, n := range []float64{
				bound, math.Nextafter(bound, 0), math.Nextafter(bound, math.Inf(1)),
				0, o / 2, o, o * 1.1,
			} {
				rep := mustCompare(t, []Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, o)},
					[]Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, n)}, tol)
				want := n < bound
				if got := rep.Regressions == 1; got != want || rep.Deltas[0].Regression != want {
					t.Errorf("old %v new %v tol %v: Regressions %d, flag %v, want %v",
						o, n, tol, rep.Regressions, rep.Deltas[0].Regression, want)
				}
				if len(rep.Groups) != 0 {
					t.Fatalf("one pair produced a group row: %+v", rep.Groups)
				}
			}
		}
	}
}

// A tolerance that would switch the gate off is an error, not a pass.
func TestCompareRejectsGateOffTolerance(t *testing.T) {
	old := []Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, 2.0)}
	new_ := []Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, 0.1)}
	for _, tol := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1, 1.5} {
		if _, err := Compare(old, new_, tol); err == nil || !strings.Contains(err.Error(), "tolerance") {
			t.Errorf("tol %v: err = %v, want a tolerance error", tol, err)
		}
	}
}

// Two 3-seed runs whose per-seed ratios scatter around 1 must pass: the
// ratio interval is wide enough to reach above 1−tol.
func TestComparePairedToleratesNoise(t *testing.T) {
	old := seeded("2_MIX", "stream", "ICOUNT.1.8", 2.00, 2.10, 1.90)
	new_ := seeded("2_MIX", "stream", "ICOUNT.1.8", 1.95, 2.05, 2.15) // ratios 0.975, 0.976, 1.132
	rep := mustCompare(t, old, new_, 0.001)
	if len(rep.Groups) != 1 {
		t.Fatalf("Groups = %+v, want 1 group", rep.Groups)
	}
	g := rep.Groups[0]
	if g.Key != "2_MIX/stream/ICOUNT.1.8" {
		t.Fatalf("group key = %q", g.Key)
	}
	if g.Ratio.N != 3 {
		t.Fatalf("group pairs = %d", g.Ratio.N)
	}
	if g.Regression || rep.Regressions != 0 {
		t.Fatalf("noise flagged as regression: %+v", g)
	}
	// The pairs are summarized in the group row: no per-cell deltas.
	if len(rep.Deltas) != 0 || rep.Missing != 0 {
		t.Fatalf("per-cell leakage: %+v", rep)
	}
	if rep.Err() != nil {
		t.Fatalf("Err() = %v", rep.Err())
	}

	// The gate is on the interval's upper bound, not the mean: a mean
	// ratio of 0.95 whose interval reaches above 1−tol is not resolvable.
	flat := seeded("2_MIX", "stream", "ICOUNT.1.8", 2.0, 2.0, 2.0)
	noisy := seeded("2_MIX", "stream", "ICOUNT.1.8", 1.7, 2.1, 1.9) // ratios 0.85, 1.05, 0.95
	rep = mustCompare(t, flat, noisy, 0.02)
	if g := rep.Groups[0]; g.Regression || g.Ratio.CIHigh < 0.98 || g.Ratio.Mean >= 0.98 {
		t.Fatalf("noisy mean drop: %+v", g)
	}
}

// A drop that every seed shows, far beyond the ratio interval, must fail
// the gate; the same magnitude upward must not.
func TestComparePairedFlagsTrueDrop(t *testing.T) {
	old := seeded("2_MIX", "stream", "ICOUNT.1.8", 2.00, 2.10, 1.90)
	new_ := seeded("2_MIX", "stream", "ICOUNT.1.8", 1.00, 1.02, 0.98) // ratios 0.500, 0.486, 0.516
	rep := mustCompare(t, old, new_, 0.001)
	if rep.Regressions != 1 || !rep.Groups[0].Regression {
		t.Fatalf("true drop not flagged: %+v", rep.Groups)
	}
	want := (1.00/2.00 + 1.02/2.10 + 0.98/1.90) / 3
	if m := rep.Groups[0].Ratio.Mean; math.Abs(m-want) > 1e-9 {
		t.Fatalf("mean ratio = %v, want %v", m, want)
	}
	err := rep.Err()
	if err == nil || !strings.Contains(err.Error(), "1 IPC regressions beyond 0.1% tolerance") {
		t.Fatalf("Err() = %v, want the regression verdict", err)
	}
	s := rep.String()
	for _, frag := range []string{"PAIRS", "CHANGE.CI95", "REGRESSION", "-49.95%",
		"0 cells and 1 cell-groups compared, 1 regressions (tolerance 0.1%)"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("report missing %q:\n%s", frag, s)
		}
	}

	rep = mustCompare(t, new_, old, 0.001)
	if rep.Regressions != 0 {
		t.Fatalf("improvement flagged: %+v", rep.Groups)
	}
}

// Zero-variance ratios give point intervals: any drop beyond the
// tolerance is resolvable, any drop inside it passes, and identical
// results are never flagged.
func TestComparePairedZeroVariance(t *testing.T) {
	same := seeded("2_MIX", "stream", "ICOUNT.1.8", 2.0, 2.0, 2.0)
	if rep := mustCompare(t, same, same, 0); rep.Regressions != 0 || rep.Err() != nil {
		t.Fatalf("self-compare failed: %+v", rep)
	}
	lower := seeded("2_MIX", "stream", "ICOUNT.1.8", 1.999, 1.999, 1.999)
	if rep := mustCompare(t, same, lower, 0); rep.Regressions != 1 {
		t.Fatalf("zero-variance drop not flagged: %+v", rep.Groups)
	}
	// The tolerance applies to multi-seed groups too: the same 0.05% drop
	// is inside a 2% tolerance. (The unpaired CI-overlap gate this rule
	// replaced flagged it, while the same drop on one seed passed.)
	if rep := mustCompare(t, same, lower, 0.02); rep.Regressions != 0 || rep.Err() != nil {
		t.Fatalf("drop inside tolerance flagged: %+v", rep.Groups)
	}
}

// A uniform 5% drop over seeds whose IPCs spread widely must fail: each
// seed's own ratio is 0.95. (The unpaired CI-overlap gate passed it, as the
// seed-to-seed spread made the two intervals overlap.)
func TestComparePairedUniformDrop(t *testing.T) {
	old := seeded("2_MIX", "stream", "ICOUNT.1.8", 2.0, 2.4, 1.6)
	new_ := seeded("2_MIX", "stream", "ICOUNT.1.8", 1.9, 2.28, 1.52)
	rep := mustCompare(t, old, new_, 0.02)
	if rep.Regressions != 1 || len(rep.Groups) != 1 || !rep.Groups[0].Regression {
		t.Fatalf("uniform 5%% drop not flagged: %+v", rep)
	}
	if rep.Err() == nil {
		t.Fatal("Err() nil despite a regression")
	}
}

// A group needs two or more seed pairs for a group row; with one pair it
// keeps per-cell semantics, including on mixed files.
func TestCompareCIRequiresReplicationOnBothSides(t *testing.T) {
	multi := seeded("2_MIX", "stream", "ICOUNT.1.8", 2.00, 2.10, 1.90)
	single := []Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, 1.0)}
	rep := mustCompare(t, multi, single, 0.02)
	if len(rep.Groups) != 0 {
		t.Fatalf("one-pair group got a group row: %+v", rep.Groups)
	}
	// Per-cell semantics: seed 1 compares (and regresses), seeds 2,3 are
	// missing in new.
	if rep.Regressions != 1 || rep.Missing != 2 {
		t.Fatalf("Regressions/Missing = %d/%d, want 1/2", rep.Regressions, rep.Missing)
	}
}

// Pairs are formed by seed. Seeds on one side only are missing cells; a
// group with ok cells on both sides and no seed in common cannot be judged
// and fails the gate, with or without a drop.
func TestCompareCIDifferingSeedSets(t *testing.T) {
	old := seeded("2_MIX", "stream", "ICOUNT.1.8", 2.00, 2.10, 1.90)
	shifted := func(f float64) []Result {
		var rs []Result
		for i, ipc := range []float64{2.01, 2.05, 1.99, 2.03} {
			rs = append(rs, res("2_MIX", "stream", "ICOUNT.1.8", uint64(i+4), ipc*f))
		}
		return rs
	}
	for _, f := range []float64{1, 0.5} {
		rep := mustCompare(t, old, shifted(f), 0.001)
		if rep.Unpaired != 1 || len(rep.Groups) != 1 || !rep.Groups[0].Unpaired || rep.Groups[0].Ratio.N != 0 {
			t.Fatalf("disjoint seeds (x%v) not unpaired: %+v", f, rep)
		}
		if rep.Missing != 7 || rep.Regressions != 0 {
			t.Fatalf("Missing/Regressions = %d/%d, want 7/0", rep.Missing, rep.Regressions)
		}
		if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "no seed in common") {
			t.Fatalf("Err() = %v, want the unpaired verdict", err)
		}
		if s := rep.String(); !strings.Contains(s, "UNPAIRED") || !strings.Contains(s, "1 unpaired") {
			t.Fatalf("report does not surface the unpaired group:\n%s", s)
		}
	}

	// Overlapping seed sets pair on the shared seeds only.
	partial := append(seeded("2_MIX", "stream", "ICOUNT.1.8", 2.50, 2.00, 2.10)[1:],
		res("2_MIX", "stream", "ICOUNT.1.8", 4, 2.0))
	rep := mustCompare(t, old, partial, 0.001)
	if len(rep.Groups) != 1 || rep.Groups[0].Ratio.N != 2 || rep.Missing != 2 || rep.Unpaired != 0 {
		t.Fatalf("partial overlap = %+v", rep)
	}
}

// Error cells keep per-cell error semantics: an ok-to-error transition
// still fails the gate, and the errored cell forms no pair.
func TestCompareCIGroupWithErrorCell(t *testing.T) {
	old := seeded("2_MIX", "stream", "ICOUNT.1.8", 2.00, 2.10, 1.90)
	new_ := seeded("2_MIX", "stream", "ICOUNT.1.8", 2.00, 2.10)
	bad := res("2_MIX", "stream", "ICOUNT.1.8", 3, 0)
	bad.Error = "synthetic failure"
	new_ = append(new_, bad)

	rep := mustCompare(t, old, new_, 0.001)
	if len(rep.Groups) != 1 || rep.Groups[0].Ratio.N != 2 {
		t.Fatalf("groups = %+v", rep.Groups)
	}
	if m := rep.Groups[0].Ratio.Mean; m != 1 {
		t.Fatalf("errored cell leaked into the ratios: mean %v", m)
	}
	if rep.Errored != 1 || len(rep.Deltas) != 1 || !rep.Deltas[0].Errored {
		t.Fatalf("ok->error inside a group not gated: %+v", rep)
	}
	if rep.Err() == nil {
		t.Fatal("Err() nil despite a newly errored cell")
	}
}

// A multi-seed file mixing multi-pair and one-pair groups judges each
// group on its own pairs.
func TestCompareMixedGroupModes(t *testing.T) {
	old := append(seeded("2_MIX", "stream", "ICOUNT.1.8", 2.00, 2.10, 1.90),
		res("4_MIX", "stream", "ICOUNT.1.8", 1, 1.50))
	new_ := append(seeded("2_MIX", "stream", "ICOUNT.1.8", 2.05, 1.95, 2.00),
		res("4_MIX", "stream", "ICOUNT.1.8", 1, 1.40)) // -6.7%: regression at 2%
	rep := mustCompare(t, old, new_, 0.02)
	if len(rep.Groups) != 1 || rep.Groups[0].Regression {
		t.Fatalf("groups = %+v", rep.Groups)
	}
	if len(rep.Deltas) != 1 || !rep.Deltas[0].Regression || rep.Regressions != 1 {
		t.Fatalf("one-pair group lost its per-cell verdict: %+v", rep.Deltas)
	}
}

// Regression test for the delta-ordering bug: sort.Strings on full keys
// put seed 10 before seed 2, diverging from SortResults' numeric order.
func TestCompareDeltaNumericSeedOrder(t *testing.T) {
	old := []Result{
		res("2_MIX", "stream", "ICOUNT.1.8", 10, 2.0),
		res("2_MIX", "stream", "ICOUNT.1.8", 1, 2.0),
		res("2_MIX", "stream", "ICOUNT.1.8", 2, 2.0),
	}
	// Single ok cell on the new side leaves the group one pair, so every
	// cell produces a delta whose order we can check.
	new_ := []Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, 2.0)}
	rep := mustCompare(t, old, new_, 0.02)
	var keys []string
	for _, d := range rep.Deltas {
		keys = append(keys, d.Key)
	}
	want := []string{
		"2_MIX/stream/ICOUNT.1.8/1",
		"2_MIX/stream/ICOUNT.1.8/2",
		"2_MIX/stream/ICOUNT.1.8/10",
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("delta order = %v, want %v", keys, want)
		}
	}
}

// Regression test for the fabricated-zero bug: a missing cell's absent
// side used to render as IPC 0.000, indistinguishable from a measured
// zero-IPC cell.
func TestReportStringMissingCellRendersBlank(t *testing.T) {
	old := []Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, 1.5)}
	new_ := []Result{res("4_MIX", "stream", "ICOUNT.1.8", 1, 1.5)}
	out := mustCompare(t, old, new_, 0.02).String()
	for _, ln := range strings.Split(out, "\n") {
		if strings.Contains(ln, "missing in") && strings.Contains(ln, "0.000") {
			t.Fatalf("missing cell renders a fabricated 0.000:\n%s", out)
		}
	}
	// The present side's value still renders.
	if !strings.Contains(out, "1.500") {
		t.Fatalf("present side's IPC missing:\n%s", out)
	}
}

// Single-seed comparisons must be bit-for-bit what they were before the
// replication layer: no groups key in the JSON, and the exact legacy text.
func TestCompareSingleSeedUnchanged(t *testing.T) {
	old := []Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, 3.0)}
	new_ := []Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, 2.0)}
	rep := mustCompare(t, old, new_, 0.02)
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"groups", "group_regressions"} {
		if strings.Contains(string(blob), frag) {
			t.Fatalf("single-seed report JSON grew a %q key:\n%s", frag, blob)
		}
	}
	want := "CELL                       OLD.IPC  NEW.IPC  CHANGE   FLAG\n" +
		"2_MIX/stream/ICOUNT.1.8/1  3.000    2.000    -33.33%  REGRESSION\n" +
		"1 cells compared, 1 regressions (tolerance 2.0%), 0 newly errored, 0 missing\n"
	if got := rep.String(); got != want {
		t.Fatalf("single-seed report text changed:\n%q\nwant\n%q", got, want)
	}
}

func TestReportString(t *testing.T) {
	old := []Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, 3.0)}
	new_ := []Result{res("2_MIX", "stream", "ICOUNT.1.8", 1, 2.0)}
	out := mustCompare(t, old, new_, 0.02).String()
	for _, frag := range []string{"REGRESSION", "1 regressions", "2_MIX/stream/ICOUNT.1.8/1", "-33.33%"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("report missing %q:\n%s", frag, out)
		}
	}
}
