package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strings"
	"time"
)

// metricName is the alphabet of metric names in BENCHMARK.json.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func validMetricName(s string) bool { return metricName.MatchString(s) }

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects metrics in insertion order with a note each, so the
// human-readable lines print in a stable, meaningful order.
type metricSet struct {
	order []string
	m     map[string]metric
	notes map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{m: map[string]metric{}, notes: map[string]string{}}
}

// add records one metric with its declared unit. An undeclared or
// malformed name, a duplicate, or a value JSON cannot carry is a bug in
// the benchmark, so it panics.
func (ms *metricSet) add(name string, v float64, note string) {
	unit, ok := declaredUnit[name]
	if !ok || !validMetricName(name) {
		panic(fmt.Sprintf("perfbench: undeclared or malformed metric name %q", name))
	}
	if _, dup := ms.m[name]; dup {
		panic(fmt.Sprintf("perfbench: metric %q recorded twice", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("perfbench: metric %q is %v", name, v))
	}
	ms.order = append(ms.order, name)
	ms.m[name] = metric{Value: v, Unit: unit}
	if note != "" {
		ms.notes[name] = note
	}
}

// print writes one "metric name value unit  # note" line per metric.
func (ms *metricSet) print(w io.Writer) {
	for _, name := range ms.order {
		mt := ms.m[name]
		line := fmt.Sprintf("metric %-40s %16.6g %s", name, mt.Value, mt.Unit)
		if n := ms.notes[name]; n != "" {
			line += "  # " + n
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// writeReport prints the result line: one compact JSON object.
func writeReport(w io.Writer, r report) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// tailQuantile is the highest quantile, at most want, that leaves at least
// minBeyond of n samples above it: a tail percentile is only reported
// where enough samples lie beyond it to pin it down. It never goes below
// the median.
func tailQuantile(n int, want float64, minBeyond int) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - float64(minBeyond)/float64(n)
	if q > want {
		q = want
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// quantile interpolates linearly between the order statistics of xs at
// position q·(n−1); xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds and millis convert durations for quantile input.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// latencyMetrics adds req_p50_ms and req_p99_ms over one latency sample.
// req_p99_ms is the 99th percentile when at least ten samples lie beyond
// it, else the highest percentile that has ten beyond; the note names the
// percentile used and the sample count.
func latencyMetrics(ms *metricSet, lat []time.Duration, what string) {
	xs := millis(lat)
	q := tailQuantile(len(xs), 0.99, 10)
	ms.add("req_p50_ms", median(xs), fmt.Sprintf("p50 over %d %s", len(xs), what))
	ms.add("req_p99_ms", quantile(xs, q), fmt.Sprintf("p%.1f over %d %s (highest percentile with >=10 samples beyond, capped at p99)", 100*q, len(xs), what))
}
