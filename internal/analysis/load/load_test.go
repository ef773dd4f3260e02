package load_test

import (
	"go/types"
	"strings"
	"testing"

	"acic/internal/analysis/load"
)

// TestLoadOrderAndRoots loads a root package with one module dependency:
// the dependency comes first, parsed and type-checked but not a root, and
// the standard library is resolved without being listed.
func TestLoadOrderAndRoots(t *testing.T) {
	res, err := load.Load(".", []string{"./testdata/b"})
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "acic/internal/analysis/load/testdata/"
	if len(res.Packages) != 2 {
		t.Fatalf("got %d packages, want a and b only", len(res.Packages))
	}
	a, b := res.Packages[0], res.Packages[1]
	if a.Path != prefix+"a" || a.Root || b.Path != prefix+"b" || !b.Root {
		t.Fatalf("packages = %s (root %v), %s (root %v); want dependency a first, root b second",
			a.Path, a.Root, b.Path, b.Root)
	}
	if len(b.Files) != 1 || b.Types.Scope().Lookup("Repeat") == nil {
		t.Fatalf("b not parsed and type-checked: %d files", len(b.Files))
	}
	// b's view of a is the very package loaded from source.
	if imp := b.Types.Imports(); len(imp) != 2 || !containsPkg(imp, a.Types) {
		t.Errorf("b imports %v, want strings and the loaded a", imp)
	}
	if name := res.Fset.Position(b.Files[0].Pos()).Filename; !strings.HasSuffix(name, "testdata/b/b.go") {
		t.Errorf("fileset position %q, want testdata/b/b.go", name)
	}
}

func containsPkg(pkgs []*types.Package, p *types.Package) bool {
	for _, q := range pkgs {
		if q == p {
			return true
		}
	}
	return false
}

func TestLoadErrors(t *testing.T) {
	for _, pattern := range []string{"./testdata/broken", "./testdata/missing"} {
		if _, err := load.Load(".", []string{pattern}); err == nil {
			t.Errorf("Load(%s) did not error", pattern)
		}
	}
}
