package releasecheck_test

import (
	"testing"

	"acic/internal/analysis/analysistest"
	"acic/internal/analysis/releasecheck"
)

func TestReleaseCheck(t *testing.T) {
	analysistest.Run(t, "testdata", releasecheck.Analyzer, "tram", "releasecheck_a")
}

// TestReleaseCheckCrossPackage exercises the interprocedural half: carrier
// facts exported by releasecheck_dep and sink summaries consumed by
// releasecheck_x.
func TestReleaseCheckCrossPackage(t *testing.T) {
	analysistest.Run(t, "testdata", releasecheck.Analyzer, "tram", "releasecheck_dep", "releasecheck_x")
}

// TestReleaseCheckBorrow covers the second obligation source: locals bound
// from Arena.Get and Manager.Borrow, leaked or used after release.
func TestReleaseCheckBorrow(t *testing.T) {
	analysistest.Run(t, "testdata", releasecheck.Analyzer, "arena", "tram", "releasecheck_borrow")
}

// TestReleaseCheckBorrowCrossPackage: the sink summaries exported while
// analyzing releasecheck_borrowdep decide whether the hand-offs in
// releasecheck_borrowx discharge their obligations.
func TestReleaseCheckBorrowCrossPackage(t *testing.T) {
	analysistest.Run(t, "testdata", releasecheck.Analyzer, "arena", "releasecheck_borrowdep", "releasecheck_borrowx")
}
