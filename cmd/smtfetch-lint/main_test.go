package main_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLint compiles the smtfetch-lint binary once per test run.
func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "smtfetch-lint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building smtfetch-lint: %v\n%s", err, out)
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
const SchemaVersion = 2

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
	dir := t.TempDir()
	for name, content := range seededModule {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
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
