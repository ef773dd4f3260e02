package lockorder_test

import (
	"testing"

	"acic/internal/analysis/analysistest"
	"acic/internal/analysis/lockorder"
)

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata", lockorder.Analyzer, "lockorder_a")
}

// TestLockOrderCrossPackage exercises the fact flow: one half of the cycle
// is an imported function's locks summary.
func TestLockOrderCrossPackage(t *testing.T) {
	analysistest.Run(t, "testdata", lockorder.Analyzer, "lockorder_dep", "lockorder_x")
}

// TestLockOrderMailboxLane exercises the forbidden pairing: a netsim lane
// lock taken (via the fabric call's locks fact) under a runtime mailbox
// lock.
func TestLockOrderMailboxLane(t *testing.T) {
	analysistest.Run(t, "testdata", lockorder.Analyzer, "lockorder_netsim", "lockorder_runtime")
}

// TestLockSend exercises the send-path table: netsim and tram stand in for
// the real packages, matched by their last path element.
func TestLockSend(t *testing.T) {
	analysistest.Run(t, "testdata", lockorder.Analyzer, "netsim", "tram", "lockorder_send")
}
