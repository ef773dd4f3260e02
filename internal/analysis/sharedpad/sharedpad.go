// Package sharedpad flags per-PE sharded state that is vulnerable to false
// sharing: a named struct containing mutex or atomic fields, used as the
// element type of a slice or array, must carry a cache-line pad.
//
// The runtime's sharded structures (arena freelists, metric cells, netsim
// lanes) are laid out as one element per PE precisely so that each PE
// touches only its own element; without padding, neighboring elements
// share 64-byte cache lines and every counter bump invalidates the
// neighbor's line — a silent multi-x slowdown the benchmarks only surface
// as noise (ROADMAP item 4 kept this open for exactly that reason). The
// rule: if the element struct has a sync.Mutex/RWMutex (by value or
// pointer) or a sync/atomic-typed field, it must also have a trailing
// blank pad field (an `_ [N]byte`-style array of at least 48 bytes, the
// convention used by arena.shard and metrics.cell).
//
// Pointer elements ([]*T) are exempt — each pointee is its own heap
// allocation, so the contended words never share the slice's lines — and
// so are elements whose type is defined in sync/atomic itself (e.g. a
// slice of atomic.Pointer), since std types cannot be padded. The
// check is purely type-driven, so sharded types defined in a dependency
// are checked at the use site without needing facts.
//
// //acic:allow-unpadded suppresses a finding (e.g. a cold, rarely-written
// shard), with a justification comment.
package sharedpad

import (
	"go/ast"
	"go/types"

	"acic/internal/analysis"
)

// Directive is the escape hatch recognized by this analyzer.
const Directive = "allow-unpadded"

// minPad is the smallest blank-array pad accepted as cache-line padding;
// 48 admits the `_ [7]uint64` (56-byte) convention alongside `_ [64]byte`.
const minPad = 48

// Analyzer is the sharedpad pass.
var Analyzer = &analysis.Analyzer{
	Name: "sharedpad",
	Doc: "require cache-line padding on sharded mutex/atomic-bearing structs\n\n" +
		"a named struct with mutex or atomic fields used as a slice/array\n" +
		"element is per-PE sharded state; without a trailing blank pad\n" +
		"field neighboring shards false-share cache lines.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	dirs := analysis.FileDirectives(pass)
	sizes := types.SizesFor("gc", "amd64")
	if sizes == nil {
		sizes = &types.StdSizes{WordSize: 8, MaxAlign: 8}
	}
	reported := make(map[*types.TypeName]bool)

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			at, ok := n.(*ast.ArrayType)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[at.Elt]
			if !ok {
				return true
			}
			if _, ptr := tv.Type.Underlying().(*types.Pointer); ptr {
				return true // each pointee is its own allocation
			}
			named := analysis.NamedOf(tv.Type)
			if named == nil || reported[named.Obj()] {
				return true
			}
			if pass.InTestFile(at.Pos()) {
				return true
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			if fromSyncAtomic(named) || !hasContendedField(st) || hasPad(st, sizes) {
				return true
			}
			if dirs.Allowed(Directive, at.Pos()) {
				return true
			}
			reported[named.Obj()] = true
			pass.Reportf(at.Pos(),
				"sharded element type %s has mutex/atomic fields but no cache-line pad: add a trailing `_ [64]byte` (or annotate //acic:allow-unpadded)",
				named.Obj().Name())
			return true
		})
	}
	return nil
}

// fromSyncAtomic reports whether the named type is defined in sync/atomic.
func fromSyncAtomic(n *types.Named) bool {
	return n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}

// hasContendedField reports whether st has a field whose writes contend
// under concurrency: a sync.Mutex/RWMutex (by value or pointer) or any
// sync/atomic-typed field.
func hasContendedField(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		t := st.Field(i).Type()
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok || n.Obj().Pkg() == nil {
			continue
		}
		switch n.Obj().Pkg().Path() {
		case "sync":
			if name := n.Obj().Name(); name == "Mutex" || name == "RWMutex" {
				return true
			}
		case "sync/atomic":
			return true
		}
	}
	return false
}

// hasPad reports whether st carries a blank array field of at least minPad
// bytes.
func hasPad(st *types.Struct, sizes types.Sizes) bool {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != "_" {
			continue
		}
		if arr, ok := f.Type().Underlying().(*types.Array); ok {
			if sizes.Sizeof(arr) >= minPad {
				return true
			}
		}
	}
	return false
}
