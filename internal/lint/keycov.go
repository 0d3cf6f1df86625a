package lint

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Package paths the key-coverage check is anchored to.
const (
	experimentPkgPath = "smtfetch/internal/experiment"
	configPkgPath     = "smtfetch/internal/config"
)

// KeyCov proves cache-key completeness: every field of experiment.Sweep
// must flow into the key document Sweep.KeyDoc builds (or be annotated
// //smtfetch:nonsemantic), and every field of config.Config must actually
// reach the JSON the document marshals. Both cache keys are hashes of that
// document, so a new knob that changes simulation output but not the
// document is a fleet-wide stale-cache incident; this analyzer turns it
// into a compile-time error instead.
var KeyCov = &analysis.Analyzer{
	Name: "keycov",
	Doc: "prove every sweep and config field flows into the cache keys\n\n" +
		"In package experiment, each field of Sweep must be referenced by\n" +
		"KeyDoc's same-package closure — the one key document both cache\n" +
		"keys hash — or be annotated //smtfetch:nonsemantic <why> (grid axes\n" +
		"are the cell identity; execution mechanics do not change results).\n" +
		"In package config, every field reachable from Config by value must\n" +
		"be exported and not json-skipped — the key document marshals the\n" +
		"whole struct, so an invisible field silently never reaches it.",
	Run: runKeyCov,
}

func runKeyCov(pass *analysis.Pass) (interface{}, error) {
	switch pass.Pkg.Path() {
	case experimentPkgPath:
		runKeyCovExperiment(pass)
	case configPkgPath:
		runKeyCovConfig(pass)
	}
	return nil, nil
}

// runKeyCovExperiment reports each Sweep field that KeyDoc's closure never
// reads and that carries no nonsemantic annotation, at the field itself.
func runKeyCovExperiment(pass *analysis.Pass) {
	dirs := collectDirectives(pass)
	named, st := lookupStruct(pass.Pkg, "Sweep")
	if named == nil {
		return
	}
	inKeyDoc := make([]bool, st.NumFields())
	funcs := sameClosureByName(pass, "KeyDoc")
	markFieldRefs(pass, funcs, map[*types.Named]*types.Struct{named: st}, func(_ *types.Named, i int) {
		inKeyDoc[i] = true
	})
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if inKeyDoc[i] || dirs.lineHas(f.Pos(), dirNonsemantic) {
			continue
		}
		pass.Reportf(f.Pos(), "experiment.Sweep.%s never reaches the key document: read it in Sweep.KeyDoc or annotate the field %s%s <why it cannot change results>",
			f.Name(), directivePrefix, dirNonsemantic)
	}
}

// runKeyCovConfig checks that every field reachable from config.Config is
// visible to encoding/json: the keys marshal the whole struct, so an
// unexported or json:"-" field is a knob that can change simulation output
// without changing any cache key.
func runKeyCovConfig(pass *analysis.Pass) {
	dirs := collectDirectives(pass)
	root, _ := lookupStruct(pass.Pkg, "Config")
	if root == nil {
		return
	}
	seen := make(map[*types.Named]bool)
	var visit func(named *types.Named)
	visit = func(named *types.Named) {
		if seen[named] {
			return
		}
		seen[named] = true
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			jsonSkipped := jsonTagName(st.Tag(i)) == "-"
			if (!f.Exported() || jsonSkipped) && !dirs.lineHas(f.Pos(), dirNonsemantic) {
				why := "is unexported"
				if jsonSkipped {
					why = "is tagged json:\"-\""
				}
				pass.Reportf(f.Pos(), "config field %s.%s %s and never reaches the cache keys (the key document marshals the whole config): export it into the JSON or annotate it %s%s <why>",
					named.Obj().Name(), f.Name(), why, directivePrefix, dirNonsemantic)
			}
			if sub := derefNamed(f.Type()); sub != nil && sub.Obj().Pkg() == pass.Pkg {
				visit(sub)
			}
		}
	}
	visit(root)
}

// jsonTagName extracts the name part of a struct tag's json key.
func jsonTagName(tag string) string {
	val, ok := reflect.StructTag(tag).Lookup("json")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(val, ','); i >= 0 {
		val = val[:i]
	}
	return val
}

// lookupStruct finds a named struct type at package scope.
func lookupStruct(pkg *types.Package, name string) (*types.Named, *types.Struct) {
	tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil, nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil, nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return named, st
}

// sameClosureByName returns the function(s) with the given name plus every
// same-package function they transitively call, mirroring snapPaths but
// rooted at one name.
func sameClosureByName(pass *analysis.Pass, root string) map[*types.Func]*ast.FuncDecl {
	set, _ := funcClosures(pass, func(name string) (bool, bool) { return name == root, false })
	return set
}
