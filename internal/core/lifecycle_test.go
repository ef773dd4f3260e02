package core

// Fig. 2 of the paper is the update lifecycle diagram: an update is created
// (relax), flows through tram_hold and/or tramlib to its destination, and
// ends as either rejected or processed after onward creation; reductions
// and broadcasts modulate the flow. These tests check the global invariants
// that lifecycle implies, observed through the per-reduction histogram
// trace.

import (
	"math"
	"testing"

	"acic/internal/gen"
	"acic/internal/netsim"
)

func traceRun(t *testing.T, seed uint64) *Result {
	t.Helper()
	g := gen.Uniform(1200, 9600, gen.Config{Seed: seed})
	p := DefaultParams()
	p.AuditTrace = true
	return runAndVerify(t, g, 0, Options{Topo: netsim.SingleNode(4), Params: p})
}

func TestLifecycleActiveCountNeverNegative(t *testing.T) {
	// At any reduction, the global active count (created - processed) must
	// be non-negative: an update cannot complete processing before it was
	// created, in any interleaving.
	res := traceRun(t, 101)
	for i, snap := range res.Stats.AuditTrace {
		if snap.Active < 0 {
			t.Fatalf("snapshot %d: negative active count %d", i, snap.Active)
		}
	}
}

func TestLifecycleBucketsSumToActive(t *testing.T) {
	// Each merged snapshot's bucket sum must equal its created-processed
	// difference: increments and decrements balance globally even though
	// individual PE histograms go negative (§II-B).
	res := traceRun(t, 102)
	for i, snap := range res.Stats.AuditTrace {
		var sum int64
		for _, b := range snap.BucketCount {
			sum += b
		}
		if sum != snap.Active {
			t.Fatalf("snapshot %d: bucket sum %d != active %d", i, sum, snap.Active)
		}
	}
}

func TestLifecycleDrainsToZero(t *testing.T) {
	// The run ends quiescent: the final snapshots show zero active updates
	// and an empty histogram.
	res := traceRun(t, 103)
	last := res.Stats.AuditTrace[len(res.Stats.AuditTrace)-1]
	if last.Active != 0 {
		t.Fatalf("final snapshot active = %d", last.Active)
	}
	// The audit omits empty buckets, so an empty histogram lists none.
	if len(last.BucketIdx) != 0 {
		t.Fatalf("final snapshot buckets %v = %v", last.BucketIdx, last.BucketCount)
	}
}

func TestLifecycleLowestBucketAdvances(t *testing.T) {
	// Fig. 1/Fig. 2 consequence: as the run progresses, low-distance
	// updates complete first, so the lowest occupied bucket of the global
	// histogram is (weakly) higher late in the run than at its start.
	res := traceRun(t, 104)
	lowest := func(s ThresholdAudit) int {
		for j, b := range s.BucketCount {
			if b > 0 {
				return s.BucketIdx[j]
			}
		}
		return math.MaxInt
	}
	trace := res.Stats.AuditTrace
	if len(trace) < 4 {
		t.Skip("run too short for trend analysis")
	}
	early := lowest(trace[len(trace)/4])
	// Use the last non-empty snapshot: the final ones are fully drained.
	late := early
	for i := len(trace) - 1; i >= 0; i-- {
		if trace[i].Active > 0 {
			late = lowest(trace[i])
			break
		}
	}
	if late < early {
		t.Errorf("lowest occupied bucket regressed: early %d, late %d", early, late)
	}
}

func TestLifecycleEveryUpdateAccountedFor(t *testing.T) {
	// created == processed == rejected + relaxation-producing + superseded.
	// We cannot observe the last two separately from outside, but their sum
	// is processed - rejected, which must be non-negative and at least the
	// number of accepted updates that performed relaxations (one per
	// relaxed vertex occurrence). Sanity: rejected <= processed. Every
	// relaxation is either created or suppressed at the sender, and the
	// virtual seed adds one created: relaxations + 1 == created + suppressed.
	res := traceRun(t, 105)
	s := res.Stats
	if s.UpdatesRejected > s.UpdatesProcessed {
		t.Errorf("rejected %d > processed %d", s.UpdatesRejected, s.UpdatesProcessed)
	}
	if s.Relaxations+1 != s.UpdatesCreated+s.UpdatesSuppressed {
		t.Errorf("relaxations %d + 1 != created %d + suppressed %d", s.Relaxations, s.UpdatesCreated, s.UpdatesSuppressed)
	}
}
