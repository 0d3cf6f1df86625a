package main_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"smtfetch/internal/lint"
)

var (
	buildOnce sync.Once
	binDir    string
	bin       string
	buildErr  error
)

// TestMain removes the binary buildLint leaves behind.
func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// buildLint compiles the smtfetch-lint binary once per test run.
func buildLint(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "smtfetch-lint"); buildErr != nil {
			return
		}
		bin = filepath.Join(binDir, "smtfetch-lint")
		if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building smtfetch-lint: %v", buildErr)
	}
	return bin
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(wd, "..", "..")
}

// writeModule writes files (slash-separated paths to contents) into a
// fresh directory and returns it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runLint runs the standalone binary in dir with args and returns its
// stdout, stderr and exit code.
func runLint(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(buildLint(t), args...)
	cmd.Dir = dir
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestVettoolCleanTree drives the binary through the go vet protocol over
// the real module — the acceptance criterion from the issue:
// `go vet -vettool=$(which smtfetch-lint) ./...` passes on a clean tree.
func TestVettoolCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module under go vet; skipped in -short mode")
	}
	bin := buildLint(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool on clean tree failed: %v\n%s", err, out)
	}
}

// seededModule is a minimal module named smtfetch with one violation of
// each analyzer class: a pooled composite literal outside its pool
// (poolown), an allocation in a hotpath function (zeroalloc), a time.Now
// call in a simulator package (determinism), a snapshot struct with a
// written-but-never-restored field (statecov), an invisible config field
// (keycov), and a schema struct whose field set does not match the
// checked-in digest (schemaver).
var seededModule = map[string]string{
	"go.mod": "module smtfetch\n\ngo 1.24\n",
	"internal/pipeline/pipeline.go": `// Package pipeline stands in for the real pooled-uop package.
package pipeline

// UOp matches the pooled type the analyzers guard.
type UOp struct{ GSeq uint64 }
`,
	"internal/core/core.go": `// Package core seeds one violation per analyzer.
package core

import (
	"time"

	"smtfetch/internal/pipeline"
)

// Evil constructs a pooled uop by hand (poolown) and consults the wall
// clock (determinism).
func Evil() *pipeline.UOp {
	_ = time.Now()
	return &pipeline.UOp{}
}

// hot allocates on the cycle path (zeroalloc).
//
//smtfetch:hotpath
func hot() []int {
	return make([]int, 8)
}

// snapSeed is snapshot state whose b field is serialized one-way
// (statecov: written but never restored).
type snapSeed struct {
	a int
	b int
}

func (s *snapSeed) Snapshot() { _, _ = s.a, s.b }
func (s *snapSeed) Restore()  { _ = s.a }
`,
	"internal/config/config.go": `// Package config seeds a keycov violation: a knob invisible to the
// JSON both cache keys marshal.
package config

// Config matches the real config root the analyzers guard.
type Config struct {
	ROBSize int
	hidden  int
}
`,
	"internal/experiment/experiment.go": `// Package experiment seeds a schemaver violation: the version constant
// matches the registration but the field set does not.
package experiment

// SchemaVersion matches the registered version.
const SchemaVersion = 3

type resultsFile struct {
	Drifted bool ` + "`json:\"drifted\"`" + `
}
`,
}

// TestVettoolCatchesSeededViolations proves each analyzer fires through
// the go vet protocol: the seeded module must fail vet with all six
// analyzer classes represented.
func TestVettoolCatchesSeededViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet on a scratch module; skipped in -short mode")
	}
	bin := buildLint(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = writeModule(t, seededModule)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed on the seeded-violation module:\n%s", out)
	}
	// One message substring per analyzer (vet prints bare diagnostics,
	// without analyzer names).
	for _, want := range []string{
		"UOp composite literal outside its pool",          // poolown
		"time.Now in a simulator package",                 // determinism
		"hotpath hot: make allocates",                     // zeroalloc
		"written by the snapshot path but never restored", // statecov
		"never reaches the cache keys",                    // keycov
		"changed without a version bump",                  // schemaver
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("vet output missing %q:\n%s", want, out)
		}
	}
}

// TestStandaloneSeeded runs the standalone command on the seeded module
// plus an in-package test file, so vet checks core's test variant: the
// text output names all six analyzers and prints each finding once,
// -json carries the same findings in the array schema, and both exit 1.
func TestStandaloneSeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet on a scratch module; skipped in -short mode")
	}
	files := map[string]string{
		"internal/core/core_test.go": "package core\n\nimport \"testing\"\n\nfunc TestEvil(t *testing.T) { Evil() }\n",
	}
	for name, content := range seededModule {
		files[name] = content
	}
	dir := writeModule(t, files)

	out, stderr, code := runLint(t, dir, "./...")
	if code != 1 {
		t.Fatalf("exit code %d, want 1 (mixed findings)\n%s%s", code, out, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	seen := make(map[string]bool)
	for _, line := range lines {
		if seen[line] {
			t.Errorf("finding printed twice: %s", line)
		}
		seen[line] = true
		if !strings.HasPrefix(line, dir+string(filepath.Separator)) {
			t.Errorf("finding without an absolute path under the module: %s", line)
		}
	}
	for _, a := range lint.Analyzers() {
		if !strings.Contains(out, ": "+a.Name+": ") {
			t.Errorf("text output names no %s finding:\n%s", a.Name, out)
		}
	}

	jsonOut, stderr, code := runLint(t, dir, "-json", "./...")
	if code != 1 {
		t.Fatalf("-json exit code %d, want 1\n%s", code, stderr)
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	dec := json.NewDecoder(strings.NewReader(jsonOut))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&findings); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, jsonOut)
	}
	if len(findings) != len(lines) {
		t.Fatalf("-json holds %d findings, text %d", len(findings), len(lines))
	}
	for i, f := range findings {
		text := fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		if text != lines[i] {
			t.Errorf("-json finding %d is %q, text line %q", i, text, lines[i])
		}
	}
}

// TestStandaloneExitCodes pins the per-class exit codes CI dispatches on.
func TestStandaloneExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet on scratch modules; skipped in -short mode")
	}
	const goMod = "module smtfetch\n\ngo 1.24\n"
	for _, tc := range []struct {
		name   string
		config string
		want   int
	}{
		{"clean", "package config\n\ntype Config struct{ ROBSize int }\n", 0},
		{"keycov only", "package config\n\ntype Config struct {\n\tROBSize int\n\thidden  int\n}\n", 7},
		{"type error", "package config\n\nfunc F() int { return \"x\" }\n", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeModule(t, map[string]string{"go.mod": goMod, "internal/config/config.go": tc.config})
			out, stderr, code := runLint(t, dir, "./...")
			if code != tc.want {
				t.Fatalf("exit code %d, want %d\n%s%s", code, tc.want, out, stderr)
			}
		})
	}
}
