// Command perfbench is smtfetch's benchmark. It runs one named workload
// against the repository's public entry points, checks that the outputs
// are correct, and prints every end-to-end metric (untraced run) or every
// per-layer metric (traced run) by name and unit. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. See README.md beside this file for the workloads
// and what each metric should move.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload sweep_full --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct{ name, unit string }

// endToEnd is every end-to-end metric an untraced run reports, in
// BENCHMARK.json order.
var endToEnd = []metricDecl{
	{"setup_s", "s"}, {"sweep_s", "s"}, {"sim_kcyc_per_s", "kcyc/s"},
	{"req_p50_ms", "ms"}, {"req_p99_ms", "ms"}, {"req_per_s", "1/s"}, {"peak_rss_mb", "MB"},
}

// perLayer is every per-layer metric a traced run reports, in
// BENCHMARK.json order. A metric whose layer the workload does not
// exercise is reported as 0 with a note; a core.stage metric the profile
// cannot resolve is left out.
var perLayer = []metricDecl{
	{"prog.build_ms", "ms"}, {"core.new_ms", "ms"},
	{"core.warm_s", "s"}, {"core.measure_s", "s"},
	{"core.measure_ns_per_cycle", "ns/cycle"}, {"core.warm_kcyc_per_s", "kcyc/s"},
	{"core.snapshot_ms", "ms"}, {"core.snapshot_bytes", "bytes"},
	{"core.restore_ms", "ms"}, {"core.set_policy_us", "us"},
	{"core.drain_ms", "ms"}, {"core.drain_cycles", "cycles"},
	{"core.fastforward_ms", "ms"}, {"core.fastforward_ns_per_instr", "ns/instr"},
	{"core.stage.commit.ns_per_cycle", "ns/cycle"}, {"core.stage.writeback.ns_per_cycle", "ns/cycle"},
	{"core.stage.decodeResolve.ns_per_cycle", "ns/cycle"}, {"core.stage.issue.ns_per_cycle", "ns/cycle"},
	{"core.stage.dispatch.ns_per_cycle", "ns/cycle"}, {"core.stage.decodeAdvance.ns_per_cycle", "ns/cycle"},
	{"core.stage.fetchStage.ns_per_cycle", "ns/cycle"}, {"core.stage.predictStage.ns_per_cycle", "ns/cycle"},
	{"experiment.prepare_ms", "ms"}, {"experiment.pool_wait_s", "s"},
	{"experiment.encode_ms", "ms"}, {"experiment.warm_groups_built", "count"},
	{"server.request_ms", "ms"}, {"server.cache_hits", "count"}, {"server.cache_misses", "count"},
	{"server.cache_stores", "count"}, {"server.hit_ratio", "frac"},
	{"server.snapshot_hits", "count"}, {"server.snapshot_stores", "count"},
	{"cluster.request_ms", "ms"}, {"cluster.dispatch_ms", "ms"},
	{"cluster.dispatches", "count"}, {"cluster.merge_self_ms", "ms"},
	{"sim.cycles", "count"}, {"sim.committed", "count"}, {"sim.avg_fetch_block_len", "instr"},
	{"sim.ipfc", "instr/cycle"}, {"sim.icache_miss_rate", "frac"}, {"sim.cond_accuracy", "frac"},
	{"trace.overhead_frac", "frac"},
}

// declaredUnit maps every declared metric to its unit.
var declaredUnit = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// fillUnexercised adds every per-layer metric the workload did not
// report, as 0, except the core.stage metrics, which stay absent.
func fillUnexercised(ms *metricSet) {
	for _, d := range perLayer {
		if _, ok := ms.m[d.name]; ok || strings.HasPrefix(d.name, "core.stage.") {
			continue
		}
		ms.add(d.name, 0, "layer not exercised on this workload")
	}
}

type options struct {
	workload string
	seed     uint64
	duration time.Duration
	trace    bool
	outDir   string
}

// outPath names a file this run writes under the output directory.
func (o options) outPath(name string) string {
	return filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-%s", o.workload, o.seed, name))
}

// checks collects the output checks of a run.
type checks struct {
	passed, failed []string
}

func (c *checks) passf(format string, args ...any) {
	c.passed = append(c.passed, fmt.Sprintf(format, args...))
}

func (c *checks) failf(format string, args ...any) {
	c.failed = append(c.failed, fmt.Sprintf(format, args...))
}

// outcome is everything a workload run reports.
type outcome struct {
	metrics    *metricSet
	chk        checks
	attempted  int
	failed     int
	failedKeys []string
	digests    []string
	unit       string // what attempted counts
	tr         *tracer
}

func newOutcome(unit string) *outcome { return &outcome{metrics: newMetricSet(), unit: unit} }

// noteFailures counts failed cells; each key is listed once however many
// sweeps it failed in.
func (o *outcome) noteFailures(keys []string) {
	o.failed += len(keys)
	for _, k := range keys {
		if !slices.Contains(o.failedKeys, k) {
			o.failedKeys = append(o.failedKeys, k)
		}
	}
}

// digest records a short hash of simulated results, so a change that
// shifts simulated behaviour shows in the output.
func (o *outcome) digest(label string, b []byte) {
	sum := sha256.Sum256(b)
	o.digests = append(o.digests, fmt.Sprintf("%s sha256:%x", label, sum[:8]))
}

// hostInfo identifies the machine and the code that produced a run.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func currentHost() hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown (not built from a git checkout)",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			h.Commit = rev
			if modified == "true" {
				h.Commit += " (modified)"
			}
		}
	}
	return h
}

// rssSampler records the process's peak resident set over an interval,
// reading /proc/self/statm every 10 ms. Starting one first returns freed
// heap to the operating system, so earlier phases of the run do not count.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []int64 // bytes
}

func startRSS() *rssSampler {
	debug.FreeOSMemory()
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	r.sample()
	go func() {
		defer close(r.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.sample()
			}
		}
	}()
	return r
}

func (r *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	r.mu.Lock()
	r.samples = append(r.samples, pages*int64(os.Getpagesize()))
	r.mu.Unlock()
}

// sliceMB is the median over consecutive slices of n samples of each
// slice's peak, in MB.
func (r *rssSampler) sliceMB(n int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var peaks []float64
	for i := 0; i < len(r.samples); i += n {
		m := int64(0)
		for _, v := range r.samples[i:min(i+n, len(r.samples))] {
			m = max(m, v)
		}
		peaks = append(peaks, float64(m)/(1<<20))
	}
	return median(peaks)
}

// stopMB ends sampling and returns the peak in MB.
func (r *rssSampler) stopMB() float64 {
	close(r.stop)
	<-r.done
	r.sample()
	return r.sliceMB(len(r.samples))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "sweep_full, sweep_sampled_fork or service_mix")
	seed := fs.Uint64("seed", 1, "workload seed: the sweeps' replication seed, the service's request stream")
	secs := fs.Int("seconds", 30, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want --seconds >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	o := options{workload: *workload, seed: *seed, duration: time.Duration(*secs) * time.Second, trace: *trace == 1, outDir: os.Getenv("PERFBENCH_OUT")}
	if o.outDir == "" {
		o.outDir = filepath.Join(".bench_build", "out")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	host := currentHost()
	hb, _ := json.Marshal(host) // plain strings and ints
	fmt.Fprintf(stdout, "host %s\n", hb)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d\n", o.workload, o.seed, *secs, *trace)

	out, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.trace {
		fillUnexercised(out.metrics)
		if err := writeTrace(o.outPath("trace.json"), host, out.tr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s\n", o.outPath("trace.json"))
		printLayerSelf(stdout, out.tr)
	}
	summarize(stdout, out)
	rep := report{Correct: len(out.chk.failed) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics.m}
	if err := writeReport(stdout, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// workloadNames lists the workloads runWorkload knows.
var workloadNames = []string{"sweep_full", "sweep_sampled_fork", "service_mix"}

func runWorkload(o options) (*outcome, error) {
	switch o.workload {
	case "sweep_full":
		if o.trace {
			return runSweepTraced(sweepFull, o)
		}
		return runSweepUntraced(sweepFull, o)
	case "sweep_sampled_fork":
		if o.trace {
			return runSweepTraced(sweepSampledFork, o)
		}
		return runSweepUntraced(sweepSampledFork, o)
	case "service_mix":
		return runService(o)
	}
	return nil, errors.New("unknown workload (want sweep_full, sweep_sampled_fork or service_mix)")
}

// summarize prints the checks, failures, digests and metrics.
func summarize(w io.Writer, out *outcome) {
	for _, p := range out.chk.passed {
		fmt.Fprintf(w, "check ok: %s\n", p)
	}
	for _, f := range out.chk.failed {
		fmt.Fprintf(w, "check FAILED: %s\n", f)
	}
	for _, k := range out.failedKeys {
		fmt.Fprintf(w, "failed %s: %s\n", strings.TrimSuffix(out.unit, "s"), k)
	}
	frac := 0.0
	if out.attempted > 0 {
		frac = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "failed_frac %.6g (%d of %d %s)\n", frac, out.failed, out.attempted, out.unit)
	for _, d := range out.digests {
		fmt.Fprintf(w, "digest %s\n", d)
	}
	out.metrics.print(w)
}

// writeTrace writes the host record and every span.
func writeTrace(path string, host hostInfo, tr *tracer) error {
	var spans []span
	if tr != nil {
		spans = tr.snapshot()
	}
	b, err := json.Marshal(struct {
		Host  hostInfo `json:"host"`
		Spans []span   `json:"spans"`
	}{host, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printLayerSelf prints each layer's total self time.
func printLayerSelf(w io.Writer, tr *tracer) {
	if tr == nil {
		return
	}
	self := layerSelf(tr.snapshot())
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "layer %-12s self %10.3f s\n", n, self[n].Seconds())
	}
}
