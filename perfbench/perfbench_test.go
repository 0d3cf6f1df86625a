package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"
)

func TestValidMetricName(t *testing.T) {
	for _, ok := range []string{"setup_s", "core.stage.fetchStage.ns_per_cycle", "a-b.c_9", "0x"} {
		if !validMetricName(ok) {
			t.Errorf("validMetricName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "req p50", "ms/s", "é", "a:b", "x\n"} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true, want false", bad)
		}
	}
	for name := range declaredUnit {
		if !validMetricName(name) {
			t.Errorf("declared metric %q has an invalid name", name)
		}
	}
}

func TestMetricSetRejectsBadValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    float64
	}{{"bad name", 1}, {"undeclared", 1}, {"setup_s", math.NaN()}, {"setup_s", math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("add(%q, %v) did not panic", tc.name, tc.v)
				}
			}()
			newMetricSet().add(tc.name, tc.v, "")
		}()
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{n: 5000, want: 0.99},   // 50 samples beyond p99
		{n: 1000, want: 0.99},   // exactly 10 beyond
		{n: 500, want: 0.98},    // p99 would leave 5; p98 leaves 10
		{n: 40, want: 0.75},     // 10 of 40 beyond
		{n: 12, want: 0.5},      // never below the median
		{n: 0, want: 0.5},       // no samples
		{n: 100000, want: 0.99}, // capped
	} {
		got := tailQuantile(tc.n, 0.99, 10)
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.n >= 20 {
			// At least ten samples lie strictly above the interpolated
			// quantile of 0..n-1.
			xs := make([]float64, tc.n)
			for i := range xs {
				xs[i] = float64(i)
			}
			q := quantile(xs, got)
			beyond := 0
			for _, x := range xs {
				if x > q {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: %d samples beyond p%.1f, want >= 10", tc.n, beyond, 100*got)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of 1,2 = %v, want 1.5", got)
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2, 5}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "cluster.request", Start: 0, End: 100 * ms},
		// Two overlapping children cover 10..60; a third covers 80..90.
		{ID: 2, Parent: 1, Name: "cluster.dispatch", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Name: "cluster.dispatch", Start: 30 * ms, End: 60 * ms},
		{ID: 4, Parent: 1, Name: "cluster.dispatch", Start: 80 * ms, End: 90 * ms},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 2, Name: "server.request", Start: 20 * ms, End: 45 * ms},
		// A child reaching past its parent is clipped.
		{ID: 6, Name: "core.measure", Start: 200 * ms, End: 300 * ms},
		{ID: 7, Parent: 6, Name: "core.drain", Start: 250 * ms, End: 350 * ms},
	}
	want := map[int]time.Duration{1: 40 * ms, 2: 15 * ms, 3: 30 * ms, 4: 10 * ms, 5: 25 * ms, 6: 50 * ms, 7: 100 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	layers := layerSelf(spans)
	if layers["cluster"] != 95*ms || layers["server"] != 25*ms || layers["core"] != 150*ms {
		t.Errorf("layerSelf = %v", layers)
	}
	by := byName(spans)
	if d := by["cluster.dispatch"]; d.n != 3 || d.selfSum() != 55*ms {
		t.Errorf("byName dispatch = %+v", d)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("bench.sweep", 0, "")
	child := tr.begin("core.warm", root, "2_MIX/stream/ICOUNT.1.8/1")
	tr.end(child)
	tr.end(root)
	sp := tr.snapshot()
	if len(sp) != 2 || sp[1].Parent != root || sp[1].Key == "" || sp[0].End < sp[1].End {
		t.Errorf("spans = %+v", sp)
	}
}

func TestRequestGenDeterministic(t *testing.T) {
	take := func(seed uint64, client, n int) []request {
		g := newRequestGen(seed, client)
		out := make([]request, n)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	a, b := take(7, 1, 400), take(7, 1, 400)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and client gave different request streams")
	}
	if reflect.DeepEqual(a, take(8, 1, 400)) {
		t.Error("different seeds gave the same request stream")
	}
	if reflect.DeepEqual(a, take(7, 0, 400)) {
		t.Error("different clients gave the same request stream")
	}
}

func TestRequestGenMix(t *testing.T) {
	cat := map[string]bool{}
	for _, g := range catalog(3) {
		b, _ := json.Marshal(g)
		cat[string(b)] = true
	}
	g := newRequestGen(3, 0)
	seenWrite := map[string]bool{}
	for block := 0; block < 50; block++ {
		writes := 0
		for i := 0; i < writeEvery; i++ {
			r := g.next()
			b, _ := json.Marshal(r.grid)
			switch {
			case r.write():
				writes++
				if cat[string(b)] || seenWrite[string(b)] {
					t.Fatalf("write %s repeats a catalog grid or an earlier write", b)
				}
				seenWrite[string(b)] = true
			case !cat[string(b)]:
				t.Fatalf("read %s is not a catalog grid", b)
			}
		}
		if writes != 1 {
			t.Fatalf("block %d has %d writes, want 1", block, writes)
		}
	}
	// Writes from different clients never collide.
	other := newRequestGen(3, 1)
	for i := 0; i < 50*writeEvery; i++ {
		if r := other.next(); r.write() {
			b, _ := json.Marshal(r.grid)
			if seenWrite[string(b)] {
				t.Fatalf("clients 0 and 1 both wrote %s", b)
			}
		}
	}
}

func TestParsePprofTop(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 9990000000ns, 100% of 9990000000ns total
      flat  flat%   sum%        cum   cum%
 900000000ns  9.01%  9.01% 2500000000ns 25.03%  smtfetch/internal/core.(*Sim).issue
 10000000ns  0.1%   9.11%   20000000ns  0.2%  smtfetch/internal/core.(*Sim).decodeAdvance (inline)
 5.5e+08ns  5.5%  14.6%  1.2e+09ns  12%  smtfetch/internal/core.(*Sim).commit
`)
	cum, err := parsePprofTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"smtfetch/internal/core.(*Sim).issue":  2.5e9,
		"smtfetch/internal/core.(*Sim).commit": 1.2e9,
	}
	if !reflect.DeepEqual(cum, want) {
		t.Errorf("parsePprofTop = %v, want %v", cum, want)
	}
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json's metric lists to the
// names this program reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	decls := func(xs []struct{ Name, Unit string }) []metricDecl {
		var out []metricDecl
		for _, x := range xs {
			out = append(out, metricDecl{x.Name, x.Unit})
		}
		return out
	}
	if got := decls(doc.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end = %v, code reports %v", got, endToEnd)
	}
	if got := decls(doc.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer = %v, code reports %v", got, perLayer)
	}
	for _, w := range doc.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not one this program runs (%v)", w.Name, workloadNames)
		}
	}
}

func TestRSSSliceMedian(t *testing.T) {
	mb := int64(1 << 20)
	r := &rssSampler{samples: []int64{10 * mb, 50 * mb, 20 * mb, 30 * mb, 400 * mb, 25 * mb, 40 * mb}}
	// Slices of two: peaks 50, 30, 400, 40; their median is 45.
	if got := r.sliceMB(2); got != 45 {
		t.Errorf("sliceMB(2) = %v, want 45", got)
	}
	if got := r.sliceMB(len(r.samples)); got != 400 {
		t.Errorf("whole-interval peak = %v, want 400", got)
	}
}
