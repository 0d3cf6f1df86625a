// Command smtfetch-lint runs the smtfetch invariants-as-lints suite
// (poolown, zeroalloc, determinism, statecov, keycov, schemaver — see
// internal/lint).
//
// The analyzers run one way, as a go vet tool, with facts and caching
// handled by the go command:
//
//   - `go vet -vettool=$(which smtfetch-lint) ./...` drives it through
//     the x/tools unitchecker protocol;
//   - `smtfetch-lint ./...` runs `go vet -vettool=<itself> -json` on the
//     packages and prints each finding once as
//     `file:line:col: analyzer: message`, sorted by position (`-json`
//     emits them as a JSON array instead);
//   - `smtfetch-lint -escape ./internal/...` runs the escape-analysis
//     gate (internal/lint/escape) instead of the analyzers.
//
// A line directive such as //smtfetch:transient covers the line it
// trails, or the line below when it stands alone on its line; see
// internal/lint.
//
// Standalone exit codes are stable per failure class so CI and scripts
// can dispatch on them: 0 clean, 2 usage error or a failed go vet (a
// package that does not compile, or an analyzer error), and when every
// finding comes from one analyzer, that analyzer's own code (poolown 3,
// zeroalloc 4, determinism 5, statecov 6, keycov 7, schemaver 8);
// findings from several analyzers exit 1.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"smtfetch/internal/lint"
	"smtfetch/internal/lint/escape"
)

// classExit maps each analyzer to its stable single-class exit code.
var classExit = map[string]int{
	"poolown":     3,
	"zeroalloc":   4,
	"determinism": 5,
	"statecov":    6,
	"keycov":      7,
	"schemaver":   8,
}

// finding is one analyzer diagnostic, in the -json output's schema.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	// go vet protocol: the go command invokes the tool as
	// `tool -V=full`, `tool -flags`, or `tool [flags] unit.cfg`.
	// unitchecker.Main handles all three and never returns.
	for _, arg := range os.Args[1:] {
		if strings.HasPrefix(arg, "-V=") || arg == "-flags" || strings.HasSuffix(arg, ".cfg") {
			unitchecker.Main(lint.Analyzers()...)
		}
	}

	flags := flag.NewFlagSet("smtfetch-lint", flag.ExitOnError)
	escapeGate := flags.Bool("escape", false, "run the escape-analysis gate instead of the analyzers")
	allowlist := flags.String("escape-allowlist", "", "allowlist file for -escape (default: internal/lint/escape/allowlist.txt under the module root)")
	jsonOut := flags.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	flags.Usage = func() {
		fmt.Fprintf(os.Stderr, `usage:
  smtfetch-lint [-json] [packages]    run the analyzer suite
  smtfetch-lint -escape [packages]    run the escape-analysis gate
  go vet -vettool=$(which smtfetch-lint) [packages]

Defaults to ./... when no packages are named.
`)
		flags.PrintDefaults()
	}
	if err := flags.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *escapeGate {
		if err := escape.Gate(os.Stdout, ".", *allowlist, patterns...); err != nil {
			fmt.Fprintln(os.Stderr, "smtfetch-lint:", err)
			os.Exit(1)
		}
		return
	}

	findings, err := vet(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smtfetch-lint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "smtfetch-lint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "smtfetch-lint: %d finding(s)\n", len(findings))
		os.Exit(exitCode(findings))
	}
}

// posn splits go vet's "file:line:col" finding position.
var posn = regexp.MustCompile(`^(.+):(\d+):(\d+)$`)

// vet runs the suite over patterns as `go vet -vettool=<this binary>
// -json` and returns its findings sorted by file, line, column and
// analyzer, each once: vet prints a JSON tree per package on stderr,
// {"pkg": {"analyzer": [{"posn": …, "message": …}]}}, after a "# pkg"
// header line, and an analyzer that failed gets {"error": …} instead of a
// list.
func vet(patterns []string) ([]finding, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self, "-json"}, patterns...)...)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go vet: %v\n%s", err, stderr.Bytes())
	}
	var trees bytes.Buffer
	for _, line := range strings.SplitAfter(stderr.String(), "\n") {
		if !strings.HasPrefix(line, "#") {
			trees.WriteString(line)
		}
	}
	findings := []finding{}
	dec := json.NewDecoder(&trees)
	for {
		var tree map[string]map[string]json.RawMessage
		if err := dec.Decode(&tree); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("reading go vet -json output: %v\n%s", err, stderr.Bytes())
		}
		for pkg, byAnalyzer := range tree {
			for analyzer, raw := range byAnalyzer {
				var diags []struct{ Posn, Message string }
				if err := json.Unmarshal(raw, &diags); err != nil {
					return nil, fmt.Errorf("%s on %s: %s", analyzer, pkg, raw)
				}
				for _, d := range diags {
					m := posn.FindStringSubmatch(d.Posn)
					if m == nil {
						return nil, fmt.Errorf("%s on %s: finding without a position: %s", analyzer, pkg, d.Message)
					}
					line, _ := strconv.Atoi(m[2])
					col, _ := strconv.Atoi(m[3])
					findings = append(findings, finding{m[1], line, col, analyzer, d.Message})
				}
			}
		}
	}
	slices.SortFunc(findings, func(a, b finding) int {
		return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Col, b.Col), strings.Compare(a.Analyzer, b.Analyzer),
			strings.Compare(a.Message, b.Message))
	})
	// Each finding prints once, even if vet repeats it for another variant
	// of its package.
	return slices.Compact(findings), nil
}

// exitCode returns the analyzer-specific code when every finding belongs
// to one class, else the generic 1.
func exitCode(findings []finding) int {
	class := findings[0].Analyzer
	for _, f := range findings[1:] {
		if f.Analyzer != class {
			return 1
		}
	}
	if code, ok := classExit[class]; ok {
		return code
	}
	return 1
}
