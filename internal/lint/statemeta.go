package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"
)

// Shared machinery for the state-coverage analyzers (statecov, schemaver):
// which packages carry snapshot sections, which of their structs are
// snapshot state, and which functions form the snapshot-write and
// restore-read paths.

// snapshotPackages are the packages whose structs participate in the
// core.Sim.Snapshot/Restore stream. statecov checks field coverage and
// schemaver exports field-set digests for all of them.
var snapshotPackages = map[string]bool{
	"smtfetch/internal/core":     true,
	"smtfetch/internal/cache":    true,
	"smtfetch/internal/fetch":    true,
	"smtfetch/internal/bpred":    true,
	"smtfetch/internal/pipeline": true,
	"smtfetch/internal/ftq":      true,
	"smtfetch/internal/prog":     true,
	"smtfetch/internal/isa":      true,
	"smtfetch/internal/stats":    true,
	"smtfetch/internal/rng":      true,
}

// snapshotExtras names snapshot structs that cannot be auto-discovered
// from their method sets: their fields are serialized inline by another
// function of the package (threadState by Sim.Snapshot/Restore, threadFE
// by FrontEnd.Snap).
var snapshotExtras = map[string][]string{
	"smtfetch/internal/core":  {"threadState"},
	"smtfetch/internal/fetch": {"threadFE"},
}

// snapRootKind classifies a function of a snapshot package as part of the
// snapshot-write path, the restore-read path, or both, by name: a Snap
// method codes its receiver in both directions (one snap.Codec method
// per type, see internal/snap), Snapshot/State write the stream, and
// Restore/SetState read it. The same classification drives struct
// auto-discovery (a struct with a write and a read method, or a Snap
// method, is snapshot state).
func snapRootKind(name string) (write, read bool) {
	switch name {
	case "Snap", "snap":
		return true, true
	case "Snapshot", "State":
		return true, false
	case "Restore", "SetState":
		return false, true
	}
	return false, false
}

// snapStructs returns the snapshot structs of the analyzed package: named
// struct types with both a write- and a read-path method (a two-way Snap
// method is both), plus the snapshotExtras entries.
// Structs declared in test files are skipped.
func snapStructs(pass *analysis.Pass) map[*types.Named]*types.Struct {
	out := make(map[*types.Named]*types.Struct)
	scope := pass.Pkg.Scope()
	extra := make(map[string]bool)
	for _, name := range snapshotExtras[pass.Pkg.Path()] {
		extra[name] = true
	}
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		if isTestFile(pass.Fset, tn.Pos()) {
			continue
		}
		if extra[name] {
			out[named] = st
			continue
		}
		var hasWrite, hasRead bool
		for i := 0; i < named.NumMethods(); i++ {
			w, r := snapRootKind(named.Method(i).Name())
			hasWrite = hasWrite || w
			hasRead = hasRead || r
		}
		if hasWrite && hasRead {
			out[named] = st
		}
	}
	return out
}

// snapPaths computes the package's snapshot-write and restore-read path
// closures: the root functions (classified by snapRootKind) plus every
// same-package function they transitively call. Roots and callees in test
// files are excluded.
func snapPaths(pass *analysis.Pass) (write, read map[*types.Func]*ast.FuncDecl) {
	return funcClosures(pass, snapRootKind)
}

// funcClosures is the general form of snapPaths: rootKind classifies each
// package-level function name into up to two root sets, and the returned
// maps are those sets closed over same-package calls.
func funcClosures(pass *analysis.Pass, rootKind func(string) (bool, bool)) (first, second map[*types.Func]*ast.FuncDecl) {
	decls := make(map[*types.Func]*ast.FuncDecl)
	callees := make(map[*types.Func][]*types.Func)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isTestFile(pass.Fset, fd.Pos()) {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
				if ok && callee.Pkg() == pass.Pkg {
					callees[fn] = append(callees[fn], callee)
				}
				return true
			})
		}
	}
	closure := func(isRoot func(string) bool) map[*types.Func]*ast.FuncDecl {
		set := make(map[*types.Func]*ast.FuncDecl)
		var frontier []*types.Func
		for fn, fd := range decls {
			if isRoot(fn.Name()) {
				set[fn] = fd
				frontier = append(frontier, fn)
			}
		}
		for len(frontier) > 0 {
			fn := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for _, callee := range callees[fn] {
				if _, seen := set[callee]; seen {
					continue
				}
				if fd, ok := decls[callee]; ok {
					set[callee] = fd
					frontier = append(frontier, callee)
				}
			}
		}
		return set
	}
	first = closure(func(name string) bool { a, _ := rootKind(name); return a })
	second = closure(func(name string) bool { _, b := rootKind(name); return b })
	return first, second
}

// markFieldRefs walks the given function bodies and records, for every
// field selection (including promoted-field selections, attributed to the
// embedded field actually traversed) on one of the snapshot structs, the
// struct field it covers.
func markFieldRefs(pass *analysis.Pass, funcs map[*types.Func]*ast.FuncDecl, structs map[*types.Named]*types.Struct, mark func(*types.Named, int)) {
	for _, fd := range funcs {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := pass.TypesInfo.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return true
			}
			named := derefNamed(s.Recv())
			if named == nil {
				return true
			}
			if _, tracked := structs[named]; tracked {
				mark(named, s.Index()[0])
			}
			return true
		})
	}
}

// derefNamed unwraps pointers down to a named type, or nil.
func derefNamed(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}
