package noalloc_test

import (
	"path/filepath"
	"strings"
	"testing"

	"acic/internal/analysis/noalloc"
)

// TestCheck runs the gate over a fixture with one escaping //acic:noalloc
// function, one blessed allocation and one clean function: exactly the
// escaping function is reported.
func TestCheck(t *testing.T) {
	findings, err := noalloc.Check(".", []string{"./testdata/noalloc_a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "noalloc" || filepath.Base(f.Pos.Filename) != "a.go" || f.Pos.Line != 11 {
		t.Errorf("finding at %s by %s, want a.go:11 by noalloc", f.Pos, f.Analyzer)
	}
	if !strings.Contains(f.Message, "escapes to heap in //acic:noalloc function escapes") {
		t.Errorf("message = %q", f.Message)
	}
}

// TestCheckNothingGated returns early, without a compiler pass, when no
// function carries the directive.
func TestCheckNothingGated(t *testing.T) {
	findings, err := noalloc.Check("..", []string{"./dircheck"})
	if err != nil || len(findings) != 0 {
		t.Fatalf("Check = %v, %v; want no findings, no error", findings, err)
	}
}

func TestCheckLoadError(t *testing.T) {
	if _, err := noalloc.Check(".", []string{"./testdata/missing"}); err == nil {
		t.Fatal("Check of a missing package did not error")
	}
}
