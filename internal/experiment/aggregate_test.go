package experiment

import (
	"math"
	"strings"
	"testing"
)

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %.12f, want %.12f", name, got, want)
	}
}

// Hand-computed replication statistics, including the degenerate cases the
// paired compare gate depends on getting right: n=1 (no spread information)
// and zero variance (a point interval).
func TestSummarizeHandComputed(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if s := summarize(nil); s != (Summary{}) {
			t.Fatalf("summarize(nil) = %+v, want zero", s)
		}
	})
	t.Run("n=1", func(t *testing.T) {
		s := summarize([]float64{2.5})
		if s.N != 1 {
			t.Fatalf("N = %d", s.N)
		}
		approx(t, "Mean", s.Mean, 2.5)
		approx(t, "Stddev", s.Stddev, 0)
		// A single run has no spread: the interval degenerates to the
		// point estimate rather than fabricating a zero-width "CI".
		approx(t, "CILow", s.CILow, 2.5)
		approx(t, "CIHigh", s.CIHigh, 2.5)
	})
	t.Run("n=2", func(t *testing.T) {
		// {1, 3}: mean 2, sample stddev sqrt(2); t(df=1) = 12.707 (the
		// exact 12.706205 rounded up) gives a half-width of
		// 12.707*sqrt(2)/sqrt(2) = 12.707 — two runs pin almost nothing
		// down, which is exactly what the wide interval says.
		s := summarize([]float64{1, 3})
		approx(t, "Mean", s.Mean, 2)
		approx(t, "Stddev", s.Stddev, math.Sqrt2)
		approx(t, "CILow", s.CILow, 2-12.707)
		approx(t, "CIHigh", s.CIHigh, 2+12.707)
	})
	t.Run("n=3", func(t *testing.T) {
		// {1, 2, 3}: mean 2, sample stddev 1, t(df=2) = 4.303,
		// half-width 4.303/sqrt(3).
		s := summarize([]float64{1, 2, 3})
		h := 4.303 / math.Sqrt(3)
		approx(t, "Mean", s.Mean, 2)
		approx(t, "Stddev", s.Stddev, 1)
		approx(t, "CILow", s.CILow, 2-h)
		approx(t, "CIHigh", s.CIHigh, 2+h)
		approx(t, "CIHalfWidth", s.CIHalfWidth(), h)
	})
	t.Run("zero variance", func(t *testing.T) {
		s := summarize([]float64{2, 2, 2, 2})
		if s.N != 4 {
			t.Fatalf("N = %d", s.N)
		}
		approx(t, "Stddev", s.Stddev, 0)
		approx(t, "CILow", s.CILow, 2)
		approx(t, "CIHigh", s.CIHigh, 2)
	})
}

func TestTCrit95Monotone(t *testing.T) {
	// The critical value must decrease toward the normal 1.96 as df grows;
	// a table typo would quietly mis-size every interval.
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		c := tCrit95(df)
		if c > prev {
			t.Fatalf("tCrit95(%d) = %v > tCrit95(%d) = %v", df, c, df-1, prev)
		}
		if c < 1.96 {
			t.Fatalf("tCrit95(%d) = %v below the normal limit", df, c)
		}
		prev = c
	}
}

func TestTCrit95ConservativeBetweenRows(t *testing.T) {
	// Every tabulated row, and past the table every df (which takes the
	// next lower row), must be at least the exact quantile, so no
	// interval is narrower than the exact one. Exact t(0.975, df) from the
	// Student-t distribution, to six decimals.
	exact := map[int]float64{
		1: 12.706205, 2: 4.302653, 3: 3.182446, 4: 2.776445, 5: 2.570582,
		6: 2.446912, 7: 2.364624, 8: 2.306004, 9: 2.262157, 10: 2.228139,
		11: 2.200985, 12: 2.178813, 13: 2.160369, 14: 2.144787, 15: 2.131450,
		16: 2.119905, 17: 2.109816, 18: 2.100922, 19: 2.093024, 20: 2.085963,
		21: 2.079614, 22: 2.073873, 23: 2.068658, 24: 2.063899, 25: 2.059539,
		26: 2.055529, 27: 2.051831, 28: 2.048407, 29: 2.045230, 30: 2.042272,
		31: 2.039513, 40: 2.021075, 41: 2.019541, 60: 2.000298, 61: 1.999624,
		120: 1.979930, 121: 1.979764,
	}
	for df, q := range exact {
		got := tCrit95(df)
		if got < q {
			t.Errorf("tCrit95(%d) = %v, below the exact %v", df, got, q)
		}
		// Table rows are rounded up to three decimals: less than 0.001 wide.
		if df <= 30 && got-q >= 0.001 {
			t.Errorf("tCrit95(%d) = %v, more than 0.001 above the exact %v", df, got, q)
		}
	}
}

func aggRes(workload, engine, policy string, seed uint64, ipc, ipfc, acc float64) Result {
	return Result{Workload: workload, Engine: engine, Policy: policy, Seed: seed,
		IPC: ipc, IPFC: ipfc, CondAccuracy: acc}
}

func TestAggregateGroupsAcrossSeeds(t *testing.T) {
	rs := []Result{
		// Deliberately unsorted, seeds 10/2/1 to exercise numeric ordering.
		aggRes("2_MIX", "stream", "ICOUNT.1.8", 10, 3.0, 9.0, 0.95),
		aggRes("2_MIX", "stream", "ICOUNT.1.8", 1, 1.0, 7.0, 0.93),
		aggRes("2_MIX", "stream", "ICOUNT.1.8", 2, 2.0, 8.0, 0.94),
		aggRes("2_MIX", "gshare+BTB", "ICOUNT.1.8", 1, 1.5, 6.0, 0.90),
	}
	gs := Aggregate(rs)
	if len(gs) != 2 {
		t.Fatalf("%d groups, want 2", len(gs))
	}
	// Sorted by (workload, engine, policy): gshare+BTB before stream.
	if gs[0].Engine != "gshare+BTB" || gs[1].Engine != "stream" {
		t.Fatalf("group order: %s, %s", gs[0].Key(), gs[1].Key())
	}
	single, multi := gs[0], gs[1]
	if single.IPC.N != 1 || single.IPC.Mean != 1.5 {
		t.Fatalf("single-seed group = %+v", single.IPC)
	}
	if multi.IPC.N != 3 {
		t.Fatalf("N = %d", multi.IPC.N)
	}
	if len(multi.Seeds) != 3 || multi.Seeds[0] != 1 || multi.Seeds[1] != 2 || multi.Seeds[2] != 10 {
		t.Fatalf("Seeds = %v, want numeric order [1 2 10]", multi.Seeds)
	}
	approx(t, "IPC.Mean", multi.IPC.Mean, 2)
	approx(t, "IPC.Stddev", multi.IPC.Stddev, 1)
	approx(t, "IPFC.Mean", multi.IPFC.Mean, 8)
	approx(t, "CondAccuracy.Mean", multi.CondAccuracy.Mean, 0.94)
}

func TestAggregateExcludesErrorCells(t *testing.T) {
	bad := aggRes("2_MIX", "stream", "ICOUNT.1.8", 2, 0, 0, 0)
	bad.Error = "synthetic failure"
	rs := []Result{
		aggRes("2_MIX", "stream", "ICOUNT.1.8", 1, 2.0, 8.0, 0.94),
		bad,
		aggRes("2_MIX", "stream", "ICOUNT.1.8", 3, 2.2, 8.2, 0.95),
	}
	gs := Aggregate(rs)
	if len(gs) != 1 {
		t.Fatalf("%d groups", len(gs))
	}
	g := gs[0]
	if g.Errors != 1 || g.IPC.N != 2 {
		t.Fatalf("Errors = %d, N = %d, want 1, 2", g.Errors, g.IPC.N)
	}
	// The failed cell's IPC-0 marker must not drag the mean down.
	approx(t, "IPC.Mean", g.IPC.Mean, 2.1)
	if len(g.Seeds) != 2 || g.Seeds[0] != 1 || g.Seeds[1] != 3 {
		t.Fatalf("Seeds = %v, want [1 3]", g.Seeds)
	}

	// A group of only error cells keeps its identity but has no stats.
	gs = Aggregate([]Result{bad})
	if len(gs) != 1 || gs[0].IPC.N != 0 || gs[0].Errors != 1 {
		t.Fatalf("all-error group = %+v", gs[0])
	}
}

// Aggregation is a pure function of the result multiset: input order must
// not leak into the statistics or the JSON bytes.
func TestAggregateOrderIndependent(t *testing.T) {
	rs := []Result{
		aggRes("2_MIX", "stream", "ICOUNT.1.8", 1, 1.01, 7, 0.93),
		aggRes("2_MIX", "stream", "ICOUNT.1.8", 2, 2.02, 8, 0.94),
		aggRes("2_MIX", "stream", "ICOUNT.1.8", 3, 3.03, 9, 0.95),
		aggRes("4_MIX", "stream", "ICOUNT.1.8", 1, 1.5, 6, 0.90),
	}
	want, err := MarshalAggregateJSON(Aggregate(rs))
	if err != nil {
		t.Fatal(err)
	}
	perm := []Result{rs[3], rs[1], rs[0], rs[2]}
	got, err := MarshalAggregateJSON(Aggregate(perm))
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatalf("aggregate depends on input order:\n%s\nvs\n%s", want, got)
	}
}

func TestAggregateJSONRoundTripAndSchema(t *testing.T) {
	gs := Aggregate([]Result{
		aggRes("2_MIX", "stream", "ICOUNT.1.8", 1, 2.0, 8.0, 0.94),
		aggRes("2_MIX", "stream", "ICOUNT.1.8", 2, 2.2, 8.2, 0.95),
	})
	blob, err := MarshalAggregateJSON(gs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"aggregate_schema_version": 1`) {
		t.Fatalf("missing schema version:\n%s", blob)
	}
	back, err := ReadAggregateJSON(strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].IPC != gs[0].IPC || back[0].Key() != gs[0].Key() {
		t.Fatalf("round trip changed groups: %+v vs %+v", back, gs)
	}
	bad := strings.Replace(string(blob), `"aggregate_schema_version": 1`, `"aggregate_schema_version": 999`, 1)
	if _, err := ReadAggregateJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("wrong aggregate schema version accepted")
	}
}

func TestAggregateTableRendering(t *testing.T) {
	gs := Aggregate([]Result{
		aggRes("2_MIX", "stream", "ICOUNT.1.8", 1, 2.0, 8.0, 0.94),
		aggRes("2_MIX", "stream", "ICOUNT.1.8", 2, 2.2, 8.2, 0.95),
		aggRes("4_MIX", "stream", "ICOUNT.1.8", 1, 1.5, 6.0, 0.90),
	})
	tbl := AggregateTable(gs)
	lines := strings.Split(strings.TrimRight(tbl, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d lines, want 3:\n%s", len(lines), tbl)
	}
	for _, frag := range []string{"IPC.CI95", "IPC.SD", "ERRORS"} {
		if !strings.Contains(lines[0], frag) {
			t.Fatalf("header missing %q: %q", frag, lines[0])
		}
	}
	if !strings.Contains(lines[1], "2.100") {
		t.Fatalf("multi-seed row missing the mean:\n%s", tbl)
	}
	// The n=1 group must not fabricate a zero spread.
	if !strings.Contains(lines[2], "-") {
		t.Fatalf("single-seed row should render '-' for spread columns:\n%s", tbl)
	}
}
