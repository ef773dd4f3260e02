package stress

// Fault profiles: seeded, deterministic fabric-level fault injection.
// Where the jitter profiles perturb WHEN a message arrives within its
// pair's FIFO order, the reorder fault breaks that order itself; the
// harness runs acic over it and still demands oracle-exact distances and a
// balanced conservation ledger. Message loss is not a profile: a dropped
// update hangs any run loudly by design (TestDroppedUpdateUnderStressHangsLoudly
// pins that contract directly).

import (
	"fmt"
	"time"

	"acic/internal/netsim"
)

// Fault names one fabric fault-injection profile. Like jitter profiles,
// fault decisions are deterministic in (seed, src, dst, n) — the n-th send
// of a pair always meets the same fate under a given seed — so failing
// schedules replay.
type Fault string

const (
	// FaultNone installs no filters (the default for the classic matrix).
	FaultNone Fault = "none"
	// FaultReorder releases ~4% of sends from the per-pair FIFO clamp with
	// extra delay, so later traffic overtakes them.
	FaultReorder Fault = "reorder"
)

// Faults returns every fault profile (excluding FaultNone), in the order
// the stress matrix enumerates them.
func Faults() []Fault {
	return []Fault{FaultReorder}
}

// ParseFault validates a fault profile name.
func ParseFault(s string) (Fault, error) {
	switch f := Fault(s); f {
	case FaultNone, FaultReorder:
		return f, nil
	}
	return "", fmt.Errorf("stress: unknown fault %q (have none, reorder)", s)
}

// faultStreamReorder separates the reorder decision stream of a seed from
// the jitter stream drawn from the same seed.
const faultStreamReorder = 0x94d049bb133111eb

// reorderPM is the per-mille share of sends FaultReorder releases.
const reorderPM = 40

// NewFaultPlan builds the seeded netsim.FaultPlan implementing f over
// topo. FaultNone returns the empty plan.
func NewFaultPlan(f Fault, seed uint64, topo netsim.Topology) netsim.FaultPlan {
	switch f {
	case FaultNone:
		return netsim.FaultPlan{}
	case FaultReorder:
	default:
		panic(fmt.Sprintf("stress: unknown fault %q", f))
	}
	st := newJitterState(seed^faultStreamReorder, topo)
	return netsim.FaultPlan{Reorder: func(src, dst, size int) (time.Duration, bool) {
		w, _ := st.next(src, dst)
		if w%1000 >= reorderPM {
			return 0, false
		}
		return time.Duration((w >> 10) % uint64(500*time.Microsecond)), true
	}}
}
