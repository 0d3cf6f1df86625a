package lint

import (
	"bytes"
	"go/ast"
	"go/token"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Analyzers returns the full smtfetch analyzer suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{PoolOwn, ZeroAlloc, Determinism, StateCov, KeyCov, SchemaVer}
}

// simPackages are the packages whose code determines simulated behavior.
// determinism applies to all of them; zeroalloc's call-graph closure rule
// treats any callee inside one of them as required-to-be-hotpath.
var simPackages = map[string]bool{
	"smtfetch/internal/core":     true,
	"smtfetch/internal/cache":    true,
	"smtfetch/internal/fetch":    true,
	"smtfetch/internal/bpred":    true,
	"smtfetch/internal/pipeline": true,
	"smtfetch/internal/ftq":      true,
	"smtfetch/internal/prog":     true,
	"smtfetch/internal/isa":      true,
	"smtfetch/internal/stats":    true,
}

// pooledTypes names the pool-managed types, keyed by defining package
// path. Constructing one of these outside its pool machinery, or
// retaining a pointer to one outside an annotated owner structure, is a
// poolown violation.
var pooledTypes = map[string]map[string]bool{
	"smtfetch/internal/pipeline": {"UOp": true},
	"smtfetch/internal/ftq":      {"Request": true},
}

// Directive names (the text after "//smtfetch:").
const (
	dirHotpath     = "hotpath"
	dirPoolOwner   = "poolowner"
	dirAllowAlloc  = "allowalloc"
	dirAllowCold   = "allowcold"
	dirCommutative = "commutative"
	dirTransient   = "transient"
	dirNonsemantic = "nonsemantic"
)

const directivePrefix = "//smtfetch:"

// directives indexes every //smtfetch: comment directive of one package:
// by declaration (for hotpath/poolowner) and by file line (for the
// allowalloc/allowcold/commutative/transient/nonsemantic escape hatches).
type directives struct {
	fset *token.FileSet
	// decl maps a FuncDecl or TypeSpec node to its directive names.
	decl map[ast.Node]map[string]bool
	// line maps filename:line to the directive names that cover that line:
	// those on the line itself, and those whose comment stands alone on
	// the line above. A directive trailing code covers its own line only.
	line map[string]map[string]bool
}

func lineKey(filename string, line int) string {
	return filename + ":" + strconv.Itoa(line)
}

// parseDirective returns the directive name and whether the comment line
// is an smtfetch directive at all. A reasoned directive like
// "//smtfetch:allowalloc pre-sized to ROB bound" yields "allowalloc".
func parseDirective(text string) (name string, reason string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	rest := text[len(directivePrefix):]
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		return rest[:i], strings.TrimSpace(rest[i:]), true
	}
	return rest, "", true
}

// reasonRequired lists directives that must carry a justification.
var reasonRequired = map[string]bool{
	dirAllowAlloc:  true,
	dirAllowCold:   true,
	dirCommutative: true,
	dirTransient:   true,
	dirNonsemantic: true,
}

// collectDirectives scans the package once. Malformed directives (unknown
// name, or a missing reason where one is mandatory) are reported
// immediately so a typo cannot silently disable a check.
func collectDirectives(pass *analysis.Pass) *directives {
	d := &directives{
		fset: pass.Fset,
		decl: make(map[ast.Node]map[string]bool),
		line: make(map[string]map[string]bool),
	}
	known := map[string]bool{
		dirHotpath: true, dirPoolOwner: true,
		dirAllowAlloc: true, dirAllowCold: true, dirCommutative: true,
		dirTransient: true, dirNonsemantic: true,
	}
	for _, f := range pass.Files {
		// Without the source every directive counts as trailing code, so
		// it covers its own line only.
		src, _ := pass.ReadFile(pass.Fset.File(f.FileStart).Name())
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, reason, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				if !known[name] {
					pass.Reportf(c.Pos(), "unknown smtfetch directive %q", directivePrefix+name)
					continue
				}
				if reasonRequired[name] && reason == "" {
					pass.Reportf(c.Pos(), "%s%s requires a justification after the directive name", directivePrefix, name)
					continue
				}
				p := pass.Fset.Position(c.Pos())
				d.mark(lineKey(p.Filename, p.Line), name)
				if standsAlone(src, p) {
					d.mark(lineKey(p.Filename, p.Line+1), name)
				}
			}
		}
		// Attach doc-comment directives to their declarations.
		for _, decl := range f.Decls {
			switch n := decl.(type) {
			case *ast.FuncDecl:
				d.attachDoc(n, n.Doc)
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					// A directive may sit on the GenDecl ("type ( ... )"
					// block doc) only for single-spec decls; otherwise it
					// must be on the TypeSpec itself.
					doc := ts.Doc
					if doc == nil && len(n.Specs) == 1 {
						doc = n.Doc
					}
					d.attachDoc(ts, doc)
				}
			}
		}
	}
	return d
}

func (d *directives) mark(key, name string) {
	if d.line[key] == nil {
		d.line[key] = make(map[string]bool)
	}
	d.line[key][name] = true
}

// standsAlone reports whether only blanks precede the comment at p on its
// line of src.
func standsAlone(src []byte, p token.Position) bool {
	start := p.Offset - (p.Column - 1)
	return start >= 0 && p.Offset <= len(src) && len(bytes.TrimSpace(src[start:p.Offset])) == 0
}

func (d *directives) attachDoc(node ast.Node, doc *ast.CommentGroup) {
	if doc == nil {
		return
	}
	for _, c := range doc.List {
		name, _, ok := parseDirective(c.Text)
		if !ok {
			continue
		}
		if d.decl[node] == nil {
			d.decl[node] = make(map[string]bool)
		}
		d.decl[node][name] = true
	}
}

// declHas reports whether node carries the named declaration directive.
func (d *directives) declHas(node ast.Node, name string) bool {
	return d.decl[node][name]
}

// lineHas reports whether the named line directive covers the node's
// line: it trails code on that line or stands alone on the line above (the
// two conventional placements for an escape-hatch comment). A directive
// trailing the line above belongs to that line's code, not to this one.
func (d *directives) lineHas(pos token.Pos, name string) bool {
	p := d.fset.Position(pos)
	return d.line[lineKey(p.Filename, p.Line)][name]
}

// isTestFile reports whether pos is inside a _test.go file. Tests build
// pool fixtures and use randomness deliberately; the runtime identity
// checks still guard them, so all three analyzers skip test files.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// fileOf returns the *ast.File of pass.Files containing pos.
func fileOf(pass *analysis.Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}
