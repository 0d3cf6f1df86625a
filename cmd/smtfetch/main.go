// Command smtfetch is the experiment driver for the SMT fetch-unit study:
//
//	smtfetch run     -workload 2_MIX -engine stream -policy ICOUNT.1.16
//	smtfetch sweep   -workloads 2_MIX,4_MIX -jobs 8 -o results.json
//	smtfetch sweep   -server http://127.0.0.1:8080 -workloads 2_MIX -o results.json
//	smtfetch serve   -addr 127.0.0.1:8080 -cache-file cache.json
//	smtfetch coordinate -addr 127.0.0.1:8090 -workers http://10.0.0.1:8080,http://10.0.0.2:8080
//	smtfetch list
//	smtfetch compare old.json new.json -tol 0.02
//
// `sweep` runs the engine×policy×workload×seed grid on a bounded worker
// pool and writes deterministically ordered JSON; with -server it posts
// the same grid to a long-running `smtfetch serve` instance, whose
// content-keyed cache answers repeated cells without re-simulating.
// `compare` diffs two such files and exits non-zero on IPC regressions
// beyond the tolerance or on cells that newly errored, which makes it
// usable as a CI perf gate.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"smtfetch"
	"smtfetch/internal/bench"
	"smtfetch/internal/cluster"
	"smtfetch/internal/experiment"
	"smtfetch/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "coordinate":
		err = cmdCoordinate(os.Args[2:])
	case "list":
		err = cmdList(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "aggregate":
		err = cmdAggregate(os.Args[2:])
	case "help", "-h", "--help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "smtfetch: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		if err == flag.ErrHelp {
			return
		}
		fmt.Fprintln(os.Stderr, "smtfetch:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: smtfetch <command> [flags]

commands:
  run        simulate a single cell and print its result
  sweep      run an engine x policy x workload x seed grid in parallel
             (or dispatch it to a sweep server with -server URL)
  serve      long-running HTTP sweep service with a content-keyed result cache
  coordinate front a fleet of sweep servers as one service: cells shard
             across workers by rendezvous hashing, failures re-dispatch
  list       print the available engines, policies, workloads, benchmarks
  compare    diff two sweep results files and flag IPC regressions
             (per-seed IPC ratios new/old, gated on their 95% CI)
  aggregate  reduce a sweep results file across its seed axis to
             per-group mean/stddev/95% CI statistics

run 'smtfetch <command> -h' for command flags.
`)
}

// simFlags registers the phase-length flags shared by run and sweep.
func simFlags(fs *flag.FlagSet) (warmup, warmupCycles, measure, maxCycles *uint64) {
	warmup = fs.Uint64("warmup", 0, "warm-up instructions per cell (0 = default 200k)")
	warmupCycles = fs.Uint64("warmup-cycles", 0, "extra cycle-based warm-up per cell after the instruction warm-up (0 = none)")
	measure = fs.Uint64("measure", 0, "measured instructions per cell (0 = default 1M)")
	maxCycles = fs.Uint64("maxcycles", 0, "cycle bound per phase (0 = default 50M)")
	return
}

// runSpec is a parsed `run` invocation: the simulator options plus the
// result label and output mode.
type runSpec struct {
	opts   smtfetch.Options
	cell   experiment.Cell
	asJSON bool
}

// runLabel names the result cell: the workload, unless a custom
// benchmark mix overrides it — those get a distinct "custom:" label so
// their results never match a real workload cell's key in compare/merge.
func runLabel(workload, benchmarks string) string {
	if benchmarks == "" {
		return workload
	}
	return "custom:" + strings.Join(splitList(benchmarks), "+")
}

func parseRunFlags(args []string) (*runSpec, error) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	workload := fs.String("workload", "2_MIX", "Table 2 workload name")
	benchmarks := fs.String("benchmarks", "", "comma-separated per-thread benchmarks (overrides -workload)")
	engine := fs.String("engine", "gshare+BTB", "fetch engine")
	policy := fs.String("policy", "ICOUNT.1.8", "fetch policy (POLICY.T.W)")
	seed := fs.Uint64("seed", 1, "replication seed, matching sweep's -seeds axis")
	asJSON := fs.Bool("json", false, "emit the full stats snapshot as JSON")
	sample := fs.String("sample", "", "SMARTS-style sampled measurement, detail:N,skip:M (empty = full detail)")
	warmup, warmupCycles, measure, maxCycles := simFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	eng, err := smtfetch.ParseEngine(*engine)
	if err != nil {
		return nil, err
	}
	pol, err := smtfetch.ParseFetchPolicy(*policy)
	if err != nil {
		return nil, err
	}
	sp, err := smtfetch.ParseSample(*sample)
	if err != nil {
		return nil, err
	}
	// Derive the simulator seed exactly as a sweep would for this cell, so
	// `run -json` output is cell-for-cell comparable with sweep output.
	cell := experiment.Cell{Workload: runLabel(*workload, *benchmarks), Engine: eng, Policy: pol, Seed: *seed}
	spec := &runSpec{
		cell:   cell,
		asJSON: *asJSON,
		opts: smtfetch.Options{
			Workload:      *workload,
			Engine:        eng,
			Policy:        pol,
			Seed:          experiment.CellSeed(cell),
			WarmupInstrs:  *warmup,
			WarmupCycles:  *warmupCycles,
			MeasureInstrs: *measure,
			MaxCycles:     *maxCycles,
			Sample:        sp,
		},
	}
	if *benchmarks != "" {
		spec.opts.Workload = ""
		spec.opts.Benchmarks = splitList(*benchmarks)
	}
	return spec, nil
}

func cmdRun(args []string) error {
	spec, err := parseRunFlags(args)
	if err != nil {
		return err
	}
	res, err := smtfetch.Run(spec.opts)
	if err != nil {
		return err
	}
	if spec.asJSON {
		r := experiment.NewResult(spec.cell, res, nil)
		return experiment.WriteJSON(os.Stdout, []experiment.Result{r})
	}
	ci := ""
	if res.SampleIntervals > 0 {
		ci = fmt.Sprintf(" ±%.3f (95%% CI, %d intervals)", res.IPCCI95, res.SampleIntervals)
	}
	fmt.Printf("%s %s %s: IPC %.3f%s  IPFC %.3f  branch acc %.4f\n",
		spec.cell.Workload, spec.cell.Engine, spec.cell.Policy, res.IPC, ci, res.IPFC, res.CondAccuracy)
	fmt.Print(res.Stats)
	return nil
}

// maxSeedShorthand bounds the `-seeds N` expansion: past this, an
// accidental bare number (say a seed value pasted without commas) would
// silently multiply the grid by orders of magnitude.
const maxSeedShorthand = 4096

// parseSeedsFlag parses the -seeds axis. A bare integer N is the
// replication shorthand, expanding to seeds 1..N; a comma-separated list
// names explicit seeds (use a trailing comma, e.g. "7,", to force list
// interpretation of a single seed). Duplicate seeds are rejected here, at
// flag-parse time, so `sweep -seeds 1,1` fails naming the flag instead of
// dying cell-by-cell later in grid validation.
func parseSeedsFlag(raw string) ([]uint64, error) {
	if raw == "" {
		return nil, nil
	}
	if !strings.Contains(raw, ",") {
		n, err := strconv.ParseUint(strings.TrimSpace(raw), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-seeds: bad seed count %q: %w", raw, err)
		}
		if n == 0 {
			return nil, fmt.Errorf("-seeds: replication count must be at least 1")
		}
		if n > maxSeedShorthand {
			return nil, fmt.Errorf("-seeds: %d expands to seeds 1..%d (max %d); pass an explicit comma-separated list for larger grids", n, n, maxSeedShorthand)
		}
		seeds := make([]uint64, n)
		for i := range seeds {
			seeds[i] = uint64(i + 1)
		}
		return seeds, nil
	}
	seen := make(map[uint64]bool)
	var seeds []uint64
	for _, s := range splitList(raw) {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-seeds: bad seed %q: %w", s, err)
		}
		if seen[v] {
			return nil, fmt.Errorf("-seeds: duplicate seed %d", v)
		}
		seen[v] = true
		seeds = append(seeds, v)
	}
	return seeds, nil
}

// sweepSpec is a parsed `sweep` invocation: the grid plus where to run
// it (locally, or on a sweep server) and where the output goes.
type sweepSpec struct {
	sweep   experiment.Sweep
	request server.SweepRequest // the same grid, as a server request
	server  string              // non-empty: POST to this base URL instead of running locally
	out     string
	table   bool
	quiet   bool
}

func parseSweepFlags(args []string) (*sweepSpec, error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	engines := fs.String("engines", "", "comma-separated engines (default: all three)")
	policies := fs.String("policies", "", "comma-separated POLICY.T.W policies (default: the paper's four ICOUNT ones)")
	workloads := fs.String("workloads", "", "comma-separated workloads (default: all of Table 2); -workload is an alias")
	fs.String("workload", "", "alias for -workloads")
	seeds := fs.String("seeds", "", "replications: N = seeds 1..N, or an explicit comma-separated seed list (default: 1)")
	jobs := fs.Int("jobs", 0, "parallel workers (0 = NumCPU; ignored with -server)")
	srvURL := fs.String("server", "", "dispatch the sweep to this `smtfetch serve` base URL instead of running locally")
	out := fs.String("o", "", "write results JSON to this file ('-' or empty = stdout)")
	table := fs.Bool("table", true, "print the aligned result table to stderr")
	quiet := fs.Bool("q", false, "suppress per-cell progress lines")
	sample := fs.String("sample", "", "SMARTS-style sampled measurement per cell, detail:N,skip:M (empty = full detail)")
	warmFork := fs.String("warm-fork", "", "share warm-ups across the policy axis: 'fork' (checkpoint once per workload/engine/seed group) or 'rerun' (the slow reference path fork must match byte-for-byte)")
	warmup, warmupCycles, measure, maxCycles := simFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	spec := &sweepSpec{
		server: *srvURL,
		out:    *out,
		table:  *table,
		quiet:  *quiet,
		sweep: experiment.Sweep{
			Jobs:          *jobs,
			WarmupInstrs:  *warmup,
			WarmupCycles:  *warmupCycles,
			MeasureInstrs: *measure,
			MaxCycles:     *maxCycles,
			Sample:        *sample,
			WarmFork:      *warmFork,
		},
	}
	if *workloads == "" {
		*workloads = fs.Lookup("workload").Value.String()
	}
	for _, s := range splitList(*engines) {
		e, err := smtfetch.ParseEngine(s)
		if err != nil {
			return nil, err
		}
		spec.sweep.Engines = append(spec.sweep.Engines, e)
	}
	for _, s := range splitList(*policies) {
		p, err := smtfetch.ParseFetchPolicy(s)
		if err != nil {
			return nil, err
		}
		spec.sweep.Policies = append(spec.sweep.Policies, p)
	}
	spec.sweep.Workloads = splitList(*workloads)
	seedList, err := parseSeedsFlag(*seeds)
	if err != nil {
		return nil, err
	}
	spec.sweep.Seeds = seedList
	if spec.request, err = server.NewSweepRequest(&spec.sweep); err != nil {
		return nil, err
	}
	return spec, nil
}

func cmdSweep(args []string) error {
	spec, err := parseSweepFlags(args)
	if err != nil {
		return err
	}
	if spec.server != "" {
		return runSweepRemote(spec)
	}
	return runSweepLocal(spec)
}

func runSweepLocal(spec *sweepSpec) error {
	sw := &spec.sweep
	if !spec.quiet {
		sw.OnResult = func(done, total int, r experiment.Result) {
			status := fmt.Sprintf("IPC %.3f", r.IPC)
			if r.Error != "" {
				status = "ERROR " + r.Error
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s: %s\n", done, total, r.Key(), status)
		}
	}

	// Prepare (expand + validate, once) before touching the output file,
	// then open it before running: a typo'd workload must not truncate an
	// existing baseline, and an unwritable path must fail in milliseconds,
	// not after a multi-hour grid.
	cells, err := sw.Prepare()
	if err != nil {
		return err
	}
	w := os.Stdout
	if spec.out != "" && spec.out != "-" {
		f, err := os.Create(spec.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	results, runErr := sw.RunCells(cells, nil)
	return writeSweepOutput(w, spec, results, runErr)
}

func runSweepRemote(spec *sweepSpec) error {
	c := &server.Client{BaseURL: spec.server}
	if !spec.quiet {
		lastDone := -1 // report only when progress advances, not every poll
		c.OnProgress = func(done, total int) {
			if done == lastDone {
				return
			}
			lastDone = done
			fmt.Fprintf(os.Stderr, "[%d/%d] cells done on %s\n", done, total, spec.server)
		}
	}

	// Same fail-fast contract as the local path: validate the grid and
	// open the output file before dispatching, so a typo'd workload or an
	// unwritable -o fails in milliseconds, not after the server ran a
	// multi-hour grid. (The server re-validates authoritatively.)
	if _, err := spec.sweep.Prepare(); err != nil {
		return err
	}
	w := os.Stdout
	if spec.out != "" && spec.out != "-" {
		f, err := os.Create(spec.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	blob, err := c.Sweep(spec.request)
	if err != nil {
		return err
	}
	// The server's document is written verbatim — byte-identical to a
	// local run of the same grid — but parsed too, for the table and so
	// per-cell failures surface in the exit status exactly like local
	// sweeps.
	results, err := experiment.ReadJSON(bytes.NewReader(blob))
	if err != nil {
		return fmt.Errorf("bad server response: %w", err)
	}
	var runErr error
	var failed []string
	for _, r := range results {
		if r.Error != "" {
			failed = append(failed, fmt.Sprintf("cell %s: %s", r.Key(), r.Error))
		}
	}
	if len(failed) > 0 {
		runErr = fmt.Errorf("%s", strings.Join(failed, "\n"))
	}
	if _, err := w.Write(blob); err != nil {
		return err
	}
	return reportSweepOutcome(w, spec, results, runErr)
}

// writeSweepOutput renders the tables, writes the results document, and
// qualifies the success message when cells failed.
func writeSweepOutput(w *os.File, spec *sweepSpec, results []experiment.Result, runErr error) error {
	if results == nil {
		return runErr
	}
	if err := experiment.WriteJSON(w, results); err != nil {
		return err
	}
	return reportSweepOutcome(w, spec, results, runErr)
}

// reportSweepOutcome renders the per-cell table (plus the seed-axis
// aggregate table when the grid carries replications) and qualifies the
// success message when cells failed. Aggregation is always client-side,
// over the merged result set — the sweep server knows nothing about seeds
// beyond the per-cell cache key, so cached and fresh cells aggregate
// identically.
func reportSweepOutcome(w *os.File, spec *sweepSpec, results []experiment.Result, runErr error) error {
	if spec.table {
		fmt.Fprint(os.Stderr, experiment.Table(results))
		if groups := experiment.Aggregate(results); len(groups) > 0 && len(groups) < len(results) {
			fmt.Fprint(os.Stderr, experiment.AggregateTable(groups))
		}
	}
	if w != os.Stdout {
		failed := 0
		for _, r := range results {
			if r.Error != "" {
				failed++
			}
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "wrote %d results (%d FAILED) to %s\n", len(results), failed, spec.out)
		} else {
			fmt.Fprintf(os.Stderr, "wrote %d results to %s\n", len(results), spec.out)
		}
	}
	return runErr
}

// readHeaderTimeout bounds how long serve and coordinate wait for a
// client's request headers, so idle or stalled connections cannot pin
// them. There is deliberately no write timeout: a synchronous sweep may
// legitimately run for minutes.
const readHeaderTimeout = 10 * time.Second

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
	cacheSize := fs.Int("cache-size", 4096, "result cache capacity in cells")
	cacheFile := fs.String("cache-file", "", "persist the result cache to this file (loaded at start, saved on shutdown)")
	syncLimit := fs.Int("sync-limit", 16, "largest grid answered synchronously; bigger grids get a job ID (-1 = everything async)")
	jobs := fs.Int("jobs", 0, "parallel workers per sweep (0 = NumCPU)")
	snapSize := fs.Int("snapshot-cache-size", 0, "warm-checkpoint cache tier capacity in entries (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv, err := server.New(server.Config{
		CacheSize:         *cacheSize,
		CacheFile:         *cacheFile,
		SyncCellLimit:     *syncLimit,
		Jobs:              *jobs,
		SnapshotCacheSize: *snapSize,
	})
	if err != nil {
		return err
	}
	var saveErr error
	err = serveUntilSignal("serve", *addr, "", srv, func() {
		// Drain running async sweeps so their cells land in the cache
		// before it is saved, and so polling clients see the jobs finish.
		srv.WaitJobs()
		if saveErr = srv.SaveCache(); saveErr == nil && *cacheFile != "" {
			fmt.Fprintf(os.Stderr, "smtfetch serve: cache saved to %s\n", *cacheFile)
		}
	})
	if saveErr != nil {
		// Surface the save failure even when Serve itself errored: the
		// operator must know the warm cache was NOT persisted.
		if err == nil {
			return saveErr
		}
		fmt.Fprintln(os.Stderr, "smtfetch serve: cache save failed:", saveErr)
	}
	return err
}

// serveUntilSignal listens on addr and serves h until SIGINT or SIGTERM,
// then shuts down gracefully: the listener closes, in-flight requests get
// 10 s to finish, and drain runs (it waits for the service's running
// jobs). A listen failure returns before anything is served or drained.
// note follows the bound URL on the "listening" line.
func serveUntilSignal(name, addr, note string, h http.Handler, drain func()) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "smtfetch %s: listening on http://%s%s\n", name, ln.Addr(), note)

	httpSrv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintf(os.Stderr, "smtfetch %s: shutting down\n", name)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()

	err = httpSrv.Serve(ln)
	if err == http.ErrServerClosed {
		<-shutdownDone
		err = nil
	}
	drain()
	return err
}

// parseCoordinateFlags parses the coordinate subcommand into a listen
// address and a cluster configuration (split out for flag tests).
func parseCoordinateFlags(args []string) (addr string, cfg cluster.Config, err error) {
	fs := flag.NewFlagSet("coordinate", flag.ContinueOnError)
	addrFlag := fs.String("addr", "127.0.0.1:8090", "listen address (use :0 for a random port)")
	workers := fs.String("workers", "", "comma-separated worker base URLs (required), e.g. http://10.0.0.1:8080,http://10.0.0.2:8080")
	syncLimit := fs.Int("sync-limit", 16, "largest grid answered synchronously (streamed); bigger grids get a job ID (-1 = everything async)")
	jobs := fs.Int("jobs", 0, "concurrent cell dispatches across the fleet (0 = 4 per worker); the streamed merge holds at most 2 x jobs results")
	probe := fs.Duration("probe-interval", 5*time.Second, "worker health-probe period, and the base of the dead-worker probe backoff")
	if err := fs.Parse(args); err != nil {
		return "", cluster.Config{}, err
	}
	urls := splitList(*workers)
	if len(urls) == 0 {
		return "", cluster.Config{}, fmt.Errorf("coordinate: -workers is required (comma-separated sweep-server URLs)")
	}
	return *addrFlag, cluster.Config{
		Workers:       urls,
		SyncCellLimit: *syncLimit,
		Jobs:          *jobs,
		ProbeInterval: *probe,
	}, nil
}

// cmdCoordinate fronts a fleet of `smtfetch serve` workers as a single
// sweep service: `sweep -server` clients point at the coordinator and
// cannot tell it from one big worker. The shutdown ordering mirrors
// serve: stop accepting, drain running jobs, then exit — the workers own
// all cache state, so there is nothing to persist here.
func cmdCoordinate(args []string) error {
	addr, cfg, err := parseCoordinateFlags(args)
	if err != nil {
		return err
	}
	co, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	co.ProbeAll() // fail loudly at startup if the fleet is unreachable or incompatible
	for _, ws := range co.ClusterStats().Workers {
		status := "alive"
		if !ws.Alive {
			status = "DOWN: " + ws.LastError
		}
		fmt.Fprintf(os.Stderr, "smtfetch coordinate: worker %s: %s\n", ws.URL, status)
	}
	co.Start(cfg.ProbeInterval)
	defer co.Stop()

	// Drain running grids so polling clients see their jobs finish.
	return serveUntilSignal("coordinate", addr, fmt.Sprintf(", %d workers", len(cfg.Workers)), co, co.WaitJobs)
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Println("engines:")
	for _, e := range smtfetch.Engines() {
		fmt.Printf("  %s\n", e)
	}
	fmt.Println("policies (any POLICY.T.W combination is accepted, e.g. BRCOUNT.2.8):")
	for _, p := range smtfetch.Policies() {
		fmt.Printf("  %s\n", p)
	}
	fmt.Println("paper fetch-policy grid (the default sweep axis):")
	for _, p := range smtfetch.FetchPolicies() {
		fmt.Printf("  %s\n", p)
	}
	fmt.Println("workloads:")
	for _, w := range bench.Workloads() {
		fmt.Printf("  %-6s %-4s %s\n", w.Name, w.Class(), strings.Join(w.Benchmarks, ","))
	}
	fmt.Println("benchmarks:")
	for _, b := range bench.Names() {
		cl, _ := bench.BenchClass(b)
		fmt.Printf("  %-8s %s\n", b, cl)
	}
	return nil
}

// parseCompareArgs accepts both "compare old new -tol x" and
// "compare -tol x old new".
func parseCompareArgs(args []string) (paths []string, tol float64, err error) {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	tolFlag := fs.Float64("tol", 0.02, "relative IPC drop tolerated before flagging a regression, in [0, 1)")
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		paths = append(paths, args[0])
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return nil, 0, err
	}
	paths = append(paths, fs.Args()...)
	if len(paths) != 2 {
		return nil, 0, fmt.Errorf("compare needs exactly two results files, got %d", len(paths))
	}
	return paths, *tolFlag, nil
}

func cmdCompare(args []string) error {
	paths, tol, err := parseCompareArgs(args)
	if err != nil {
		return err
	}
	oldRes, err := experiment.ReadJSONFile(paths[0])
	if err != nil {
		return err
	}
	newRes, err := experiment.ReadJSONFile(paths[1])
	if err != nil {
		return err
	}
	rep, err := experiment.Compare(oldRes, newRes, tol)
	if err != nil {
		return err
	}
	fmt.Print(rep)
	return rep.Err()
}

// parseAggregateArgs accepts both "aggregate results.json -o agg.json"
// and "aggregate -o agg.json results.json".
func parseAggregateArgs(args []string) (path, out string, table bool, err error) {
	fs := flag.NewFlagSet("aggregate", flag.ContinueOnError)
	outFlag := fs.String("o", "", "write aggregate JSON to this file ('-' or empty = stdout)")
	tableFlag := fs.Bool("table", true, "print the aligned aggregate table to stderr")
	var paths []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		paths = append(paths, args[0])
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return "", "", false, err
	}
	paths = append(paths, fs.Args()...)
	if len(paths) != 1 {
		return "", "", false, fmt.Errorf("aggregate needs exactly one results file, got %d", len(paths))
	}
	return paths[0], *outFlag, *tableFlag, nil
}

func cmdAggregate(args []string) error {
	path, out, table, err := parseAggregateArgs(args)
	if err != nil {
		return err
	}
	rs, err := experiment.ReadJSONFile(path)
	if err != nil {
		return err
	}
	groups := experiment.Aggregate(rs)
	if table {
		fmt.Fprint(os.Stderr, experiment.AggregateTable(groups))
	}
	w := os.Stdout
	if out != "" && out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := experiment.WriteAggregateJSON(w, groups); err != nil {
		return err
	}
	if w != os.Stdout {
		fmt.Fprintf(os.Stderr, "wrote %d aggregate groups to %s\n", len(groups), out)
	}
	return nil
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
