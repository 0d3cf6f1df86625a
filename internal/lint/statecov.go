package lint

import (
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// StateCov proves snapshot completeness at the field level: every field of
// every struct participating in a snapshot section must be referenced in
// both the package's snapshot-write path and its restore-read path, or
// carry a //smtfetch:transient annotation explaining why it is not state
// (free lists, slabs, per-cycle scratch, memoized geometry). The warm-fork
// byte-identity tests cannot catch a field that is missing from BOTH sides
// of the comparison; this analyzer can.
var StateCov = &analysis.Analyzer{
	Name: "statecov",
	Doc: "prove every snapshot-struct field is serialized in both directions\n\n" +
		"In the snapshot packages (core, cache, fetch, bpred, pipeline, ftq,\n" +
		"prog, isa, stats, rng), a struct with a two-way Snap method (one\n" +
		"snap.Codec method that both writes and restores it), or with both a\n" +
		"write-path (Snapshot/State) and a read-path (Restore/SetState)\n" +
		"method, or one of the known inline-serialized structs, is snapshot\n" +
		"state. Each of its fields must be referenced inside the package's\n" +
		"snapshot-write closure (Snap/Snapshot/State and their same-package\n" +
		"callees) AND its restore-read closure (Snap/Restore/SetState and\n" +
		"theirs), or be annotated //smtfetch:transient <why>. A Snap method\n" +
		"is in both closures, so it covers a field in both directions at\n" +
		"once; written-but-never-restored and restored-but-never-written\n" +
		"asymmetries in the one-way roots are errors too.",
	Run: runStateCov,
}

func runStateCov(pass *analysis.Pass) (interface{}, error) {
	if !snapshotPackages[pass.Pkg.Path()] {
		return nil, nil
	}
	dirs := collectDirectives(pass)
	structs := snapStructs(pass)
	if len(structs) == 0 {
		return nil, nil
	}
	writeFuncs, readFuncs := snapPaths(pass)

	written := make(map[*types.Named][]bool)
	restored := make(map[*types.Named][]bool)
	for named, st := range structs {
		written[named] = make([]bool, st.NumFields())
		restored[named] = make([]bool, st.NumFields())
	}
	markFieldRefs(pass, writeFuncs, structs, func(n *types.Named, i int) { written[n][i] = true })
	markFieldRefs(pass, readFuncs, structs, func(n *types.Named, i int) { restored[n][i] = true })

	for named, st := range structs {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" {
				continue
			}
			if dirs.lineHas(f.Pos(), dirTransient) {
				continue
			}
			w, r := written[named][i], restored[named][i]
			switch {
			case !w && !r:
				pass.Reportf(f.Pos(), "field %s.%s is in neither the snapshot-write nor the restore-read path: code it in its type's Snap method (or Snapshot/Restore) or annotate it %s%s <why it is not state>",
					named.Obj().Name(), f.Name(), directivePrefix, dirTransient)
			case w && !r:
				pass.Reportf(f.Pos(), "field %s.%s is written by the snapshot path but never restored: a restored simulator silently diverges from the original; decode it or annotate it %s%s <why>",
					named.Obj().Name(), f.Name(), directivePrefix, dirTransient)
			case !w && r:
				pass.Reportf(f.Pos(), "field %s.%s is restored but never written by the snapshot path: the decode consumes bytes the encode never produced (or rebuilds state it should not); encode it or annotate it %s%s <why>",
					named.Obj().Name(), f.Name(), directivePrefix, dirTransient)
			}
		}
	}
	return nil, nil
}
