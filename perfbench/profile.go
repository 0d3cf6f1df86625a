package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// stages are the eight core.Cycle stages, in pipeline order as Cycle
// calls them.
var stages = []string{"commit", "writeback", "decodeResolve", "issue", "dispatch", "decodeAdvance", "fetchStage", "predictStage"}

// cpuProfile is a runtime/pprof CPU profile written to a file.
type cpuProfile struct {
	f    *os.File
	path string
}

func startProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{f: f, path: path}, nil
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// stageNsPerCycle resolves the profile with the offline `go tool pprof`
// and returns, per core.Cycle stage, its cumulative CPU time divided by
// the cycles simulated while profiling. A stage that was inlined or does
// not appear in the profile is left out, never reported as zero.
func (p *cpuProfile) stageNsPerCycle(cycles uint64) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-unit=ns", p.path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	cum, err := parsePprofTop(out)
	if err != nil {
		return nil, err
	}
	res := map[string]float64{}
	for _, st := range stages {
		ns, ok := cum["smtfetch/internal/core.(*Sim)."+st]
		if ok && cycles > 0 {
			res[st] = ns / float64(cycles)
		}
	}
	return res, nil
}

// parsePprofTop reads `pprof -top -unit=ns` rows ("flat flat% sum% cum
// cum% name") into cumulative nanoseconds per function. Inlined frames,
// which pprof marks "(inline)", are skipped: their time cannot be told
// apart from their caller's.
func parsePprofTop(out []byte) (map[string]float64, error) {
	cum := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		if f[len(f)-1] == "(inline)" {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[3], "ns"), 64)
		if err != nil {
			continue
		}
		cum[strings.Join(f[5:], " ")] = v
	}
	return cum, sc.Err()
}

// stageMetrics adds core.stage.<stage>.ns_per_cycle for every resolved
// stage and prints the names of the absent ones.
func stageMetrics(ms *metricSet, ns map[string]float64) {
	var absent []string
	for _, st := range stages {
		v, ok := ns[st]
		if !ok {
			absent = append(absent, st)
			continue
		}
		ms.add("core.stage."+st+".ns_per_cycle", v, "cumulative CPU time per simulated cycle, runtime/pprof")
	}
	if len(absent) > 0 {
		fmt.Printf("absent core.stage metrics (inlined or not in the profile): %s\n", strings.Join(absent, ", "))
	}
}
