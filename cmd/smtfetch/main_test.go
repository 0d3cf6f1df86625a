package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"smtfetch/internal/experiment"
	"smtfetch/internal/server"
)

func TestParseSweepFlagsWorkloadAlias(t *testing.T) {
	spec, err := parseSweepFlags([]string{"-workload", "2_MIX"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.sweep.Workloads, []string{"2_MIX"}) {
		t.Fatalf("Workloads = %v", spec.sweep.Workloads)
	}
	// -workloads wins over the alias when both are given.
	spec, err = parseSweepFlags([]string{"-workload", "2_MIX", "-workloads", "4_MIX,8_MIX"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.sweep.Workloads, []string{"4_MIX", "8_MIX"}) {
		t.Fatalf("Workloads = %v", spec.sweep.Workloads)
	}
}

func TestParseSweepFlagsGridAndRequestAgree(t *testing.T) {
	spec, err := parseSweepFlags([]string{
		"-engines", "stream", "-policies", "ICOUNT.1.8,RR.1.8",
		"-workloads", "2_MIX", "-seeds", "1,2",
		"-warmup", "1000", "-measure", "2000",
		"-server", "http://example:1234", "-o", "out.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if spec.server != "http://example:1234" || spec.out != "out.json" {
		t.Fatalf("server/out = %q/%q", spec.server, spec.out)
	}
	want := server.SweepRequest{
		Engines:       []string{"stream"},
		Policies:      []string{"ICOUNT.1.8", "RR.1.8"},
		Workloads:     []string{"2_MIX"},
		Seeds:         []uint64{1, 2},
		WarmupInstrs:  1000,
		MeasureInstrs: 2000,
	}
	if !reflect.DeepEqual(spec.request, want) {
		t.Fatalf("request = %+v, want %+v", spec.request, want)
	}
	// The request and the local grid must describe the same cells.
	sw, err := spec.request.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	local, err := spec.sweep.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	remote, err := sw.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(local, remote) {
		t.Fatalf("local cells %v != request cells %v", local, remote)
	}
}

func TestParseSweepFlagsErrors(t *testing.T) {
	if _, err := parseSweepFlags([]string{"-seeds", "banana"}); err == nil || !strings.Contains(err.Error(), "bad seed") {
		t.Fatalf("bad seed: %v", err)
	}
	if _, err := parseSweepFlags([]string{"-policies", "ICOUNT"}); err == nil {
		t.Fatal("bad policy accepted")
	}
	if _, err := parseSweepFlags([]string{"-engines", "quantum"}); err == nil {
		t.Fatal("bad engine accepted")
	}
}

func TestParseSeedsFlag(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		want []uint64
		err  string
	}{
		{raw: "", want: nil},
		// A bare integer is a replication count: seeds 1..N.
		{raw: "1", want: []uint64{1}},
		{raw: "3", want: []uint64{1, 2, 3}},
		// A comma anywhere makes it an explicit seed list; a trailing
		// comma is the escape hatch for a single explicit seed.
		{raw: "1,2,10", want: []uint64{1, 2, 10}},
		{raw: "7,", want: []uint64{7}},
		{raw: "0", err: "at least 1"},
		{raw: "banana", err: "bad seed"},
		{raw: "1,banana", err: "bad seed"},
		{raw: "1,1", err: "duplicate seed 1"},
		{raw: "1,2,3,2", err: "duplicate seed 2"},
		{raw: "5000", err: "explicit comma-separated list"},
	} {
		got, err := parseSeedsFlag(tc.raw)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("parseSeedsFlag(%q) err = %v, want substring %q", tc.raw, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseSeedsFlag(%q): %v", tc.raw, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseSeedsFlag(%q) = %v, want %v", tc.raw, got, tc.want)
		}
	}
}

func TestParseSweepFlagsSeedShorthand(t *testing.T) {
	spec, err := parseSweepFlags([]string{"-workloads", "2_MIX", "-seeds", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.sweep.Seeds, []uint64{1, 2, 3}) {
		t.Fatalf("Seeds = %v", spec.sweep.Seeds)
	}
	// Duplicates die at flag parse time, naming the flag — not deep in
	// Prepare after the user already waited on validation.
	if _, err := parseSweepFlags([]string{"-seeds", "1,1"}); err == nil ||
		!strings.Contains(err.Error(), "-seeds: duplicate seed 1") {
		t.Fatalf("duplicate seeds: %v", err)
	}
}

func TestParseAggregateArgs(t *testing.T) {
	for _, args := range [][]string{
		{"results.json", "-o", "agg.json"},
		{"-o", "agg.json", "results.json"},
	} {
		path, out, table, err := parseAggregateArgs(args)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if path != "results.json" || out != "agg.json" || !table {
			t.Fatalf("%v -> path %q out %q table %v", args, path, out, table)
		}
	}
	if _, _, _, err := parseAggregateArgs(nil); err == nil {
		t.Fatal("no path accepted")
	}
	if _, _, _, err := parseAggregateArgs([]string{"a.json", "b.json"}); err == nil {
		t.Fatal("two paths accepted")
	}
}

func TestParseCompareArgsPathOrder(t *testing.T) {
	for _, args := range [][]string{
		{"old.json", "new.json", "-tol", "0.05"},
		{"-tol", "0.05", "old.json", "new.json"},
		{"old.json", "-tol", "0.05", "new.json"},
	} {
		paths, tol, err := parseCompareArgs(args)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !reflect.DeepEqual(paths, []string{"old.json", "new.json"}) || tol != 0.05 {
			t.Fatalf("%v -> paths %v tol %v", args, paths, tol)
		}
	}
	if _, _, err := parseCompareArgs([]string{"only.json"}); err == nil {
		t.Fatal("single path accepted")
	}
	if _, _, err := parseCompareArgs([]string{"a.json", "b.json", "c.json"}); err == nil {
		t.Fatal("three paths accepted")
	}
}

func TestParseRunFlagsLabels(t *testing.T) {
	spec, err := parseRunFlags([]string{"-workload", "4_MIX"})
	if err != nil {
		t.Fatal(err)
	}
	if spec.cell.Workload != "4_MIX" || spec.opts.Workload != "4_MIX" {
		t.Fatalf("workload label = %q / opts %q", spec.cell.Workload, spec.opts.Workload)
	}
	// Custom benchmark mixes get a distinct label and clear Workload.
	spec, err = parseRunFlags([]string{"-benchmarks", "loop, hash"})
	if err != nil {
		t.Fatal(err)
	}
	if spec.cell.Workload != "custom:loop+hash" {
		t.Fatalf("custom label = %q", spec.cell.Workload)
	}
	if spec.opts.Workload != "" || !reflect.DeepEqual(spec.opts.Benchmarks, []string{"loop", "hash"}) {
		t.Fatalf("opts = %+v", spec.opts)
	}
	if spec.opts.Seed == 0 {
		t.Fatal("cell seed not derived")
	}
	if _, err := parseRunFlags([]string{"-engine", "quantum"}); err == nil {
		t.Fatal("bad engine accepted")
	}
}

// `run -json` builds its simulator options by hand, beside the sweep's
// cellOptions; its output must be the matching cell of a one-cell local
// sweep at the same seed, byte for byte.
func TestRunJSONMatchesSweepCell(t *testing.T) {
	dir := t.TempDir()
	runOut := filepath.Join(dir, "run.json")
	sweepOut := filepath.Join(dir, "sweep.json")
	f, err := os.Create(runOut)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	err = cmdRun([]string{
		"-workload", "4_MIX", "-engine", "gskew+FTB", "-policy", "RR.2.8", "-seed", "3",
		"-warmup", "2000", "-measure", "5000", "-json",
	})
	os.Stdout = stdout
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := cmdSweep([]string{
		"-workloads", "4_MIX", "-engines", "gskew+FTB", "-policies", "RR.2.8", "-seeds", "3,",
		"-warmup", "2000", "-measure", "5000", "-q", "-table=false", "-o", sweepOut,
	}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	ran, err := os.ReadFile(runOut)
	if err != nil {
		t.Fatal(err)
	}
	swept, err := os.ReadFile(sweepOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(ran) != string(swept) {
		t.Fatalf("run -json differs from the sweep cell:\n%s\nvs\n%s", ran, swept)
	}
}

// End-to-end -server dispatch: the CLI posts the grid to a sweep server
// and the file it writes is byte-identical to a local run's.
func TestSweepServerDispatchMatchesLocal(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	dir := t.TempDir()
	localOut := filepath.Join(dir, "local.json")
	remoteOut := filepath.Join(dir, "remote.json")
	grid := []string{
		"-workloads", "2_MIX", "-engines", "stream", "-policies", "ICOUNT.1.8,RR.1.8",
		"-warmup", "2000", "-measure", "5000", "-q", "-table=false",
	}
	if err := cmdSweep(append(grid, "-o", localOut)); err != nil {
		t.Fatalf("local sweep: %v", err)
	}
	if err := cmdSweep(append(grid, "-server", ts.URL, "-o", remoteOut)); err != nil {
		t.Fatalf("remote sweep: %v", err)
	}
	local, err := os.ReadFile(localOut)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := os.ReadFile(remoteOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(local) != string(remote) {
		t.Fatalf("server-dispatched sweep differs from local:\n%s\nvs\n%s", local, remote)
	}
	if st := srv.CacheStats(); st.Misses != 2 || st.Stores != 2 {
		t.Fatalf("cache stats after dispatch = %+v", st)
	}

	// Fail-fast contract: an invalid grid or unwritable -o must error
	// before the server is asked to run anything.
	before := srv.CacheStats()
	bad := []string{"-workloads", "9_NOPE", "-server", ts.URL, "-q", "-table=false"}
	if err := cmdSweep(bad); err == nil {
		t.Fatal("unknown workload accepted in server mode")
	}
	unwritable := []string{
		"-workloads", "2_MIX", "-engines", "stream", "-policies", "ICOUNT.1.8",
		"-server", ts.URL, "-q", "-table=false", "-o", filepath.Join(dir, "absent", "out.json"),
	}
	if err := cmdSweep(unwritable); err == nil {
		t.Fatal("unwritable -o accepted in server mode")
	}
	if after := srv.CacheStats(); after != before {
		t.Fatalf("failed dispatches reached the server: %+v -> %+v", before, after)
	}
}

// Multi-seed end-to-end: `sweep -seeds 3 -o` writes the per-cell results
// and `aggregate -o` reduces them across the seed axis to one group.
func TestSweepAggregateOutput(t *testing.T) {
	dir := t.TempDir()
	resOut := filepath.Join(dir, "results.json")
	aggOut := filepath.Join(dir, "agg.json")
	if err := cmdSweep([]string{
		"-workloads", "2_MIX", "-engines", "stream", "-policies", "ICOUNT.1.8",
		"-seeds", "3", "-warmup", "2000", "-measure", "5000",
		"-q", "-table=false", "-o", resOut,
	}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if err := cmdAggregate([]string{resOut, "-table=false", "-o", aggOut}); err != nil {
		t.Fatalf("aggregate: %v", err)
	}

	groups, err := experiment.ReadAggregateJSONFile(aggOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 {
		t.Fatalf("%d groups, want 1", len(groups))
	}
	g := groups[0]
	if g.IPC.N != 3 || !reflect.DeepEqual(g.Seeds, []uint64{1, 2, 3}) {
		t.Fatalf("group = %+v", g)
	}
	if g.IPC.Mean <= 0 || g.IPC.CILow > g.IPC.Mean || g.IPC.CIHigh < g.IPC.Mean {
		t.Fatalf("inconsistent IPC summary: %+v", g.IPC)
	}
}
