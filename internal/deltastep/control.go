package deltastep

import "acic/internal/runtime"

// The Δ-stepping control plane: the commands the root broadcasts, the
// status every PE reduces after executing one, and the root's phase state
// machine. It is independent of how vertices and edges are laid out, so the
// 1-D handler in this package and the 2-D data plane in internal/delta2d
// both run on it.

// Command is one bulk-synchronous step the root orders.
type Command uint8

const (
	// CmdDrainLight: drain the current bucket, relax light edges.
	CmdDrainLight Command = iota
	// CmdWait: a barrier retry — requests are still in flight; process
	// arrivals and report again.
	CmdWait
	// CmdHeavy: relax heavy edges of the vertices settled from the
	// current bucket.
	CmdHeavy
	// CmdAdvance: move to the given bucket and drain it.
	CmdAdvance
	// CmdBellmanFord: one Bellman-Ford round over the active frontier.
	CmdBellmanFord
	// CmdTerminate: stop.
	CmdTerminate
)

// Ctrl is the broadcast payload.
type Ctrl struct {
	Cmd    Command
	Bucket int32
}

// Status is the per-PE contribution reduced after every command.
type Status struct {
	Sent, Received int64 // cumulative request counters
	MinBucket      int32 // lowest non-empty local bucket, or -1
	Settled        int64 // vertices first removed from the current bucket since the last contribution
	Active         int64 // BF-mode frontier size
	Changed        bool  // any distance improved since last contribution
}

// CombineStatus is the runtime.Config.Combine for Status contributions.
func CombineStatus(a, b any) any {
	av, bv := a.(*Status), b.(*Status)
	av.Sent += bv.Sent
	av.Received += bv.Received
	if bv.MinBucket >= 0 && (av.MinBucket < 0 || bv.MinBucket < av.MinBucket) {
		av.MinBucket = bv.MinBucket
	}
	av.Settled += bv.Settled
	av.Active += bv.Active
	av.Changed = av.Changed || bv.Changed
	return av
}

// Root is the root PE's phase state machine. A handler embeds it to get
// runtime.Handler's OnReduction; only PE 0's copy ever runs. The exported
// counters are the run's synchronization bill, read after termination.
type Root struct {
	// Hybrid enables the RIKEN switch to Bellman-Ford once the per-bucket
	// settled count has passed a local maximum (§IV-A).
	Hybrid bool

	Supersteps       int64
	BucketsProcessed int64
	BFRounds         int64
	Switched         bool
	SettledPerEpoch  []int64 // newly settled vertices per bucket epoch

	bucket            int32 // the bucket being drained
	phase             phase
	epochSettledAccum int64
	prevSettled       int64
	rose              bool
	terminated        bool
}

type phase uint8

const (
	phaseLight phase = iota
	phaseLightDrain
	phaseHeavy
	phaseHeavyDrain
	phaseBF
)

// OnReduction consumes one combined Status and broadcasts the next command.
func (r *Root) OnReduction(pe *runtime.PE, epoch int64, value any) {
	if r.terminated {
		return
	}
	s := value.(*Status)
	r.Supersteps++

	// A barrier is only complete when every sent request was received.
	inFlight := s.Sent != s.Received

	var ctrl Ctrl
	switch r.phase {
	case phaseLight, phaseLightDrain:
		r.epochSettledAccum += s.Settled
		if inFlight {
			ctrl = Ctrl{Cmd: CmdWait}
			r.phase = phaseLightDrain
			break
		}
		if s.MinBucket >= 0 && s.MinBucket <= r.bucket {
			// Current bucket refilled (or not yet empty): another light
			// iteration.
			ctrl = Ctrl{Cmd: CmdDrainLight, Bucket: r.bucket}
			r.phase = phaseLight
			break
		}
		// Bucket empty everywhere: heavy phase.
		ctrl = Ctrl{Cmd: CmdHeavy}
		r.phase = phaseHeavy
	case phaseHeavy, phaseHeavyDrain:
		if inFlight {
			ctrl = Ctrl{Cmd: CmdWait}
			r.phase = phaseHeavyDrain
			break
		}
		// Epoch (bucket) complete.
		r.BucketsProcessed++
		r.SettledPerEpoch = append(r.SettledPerEpoch, r.epochSettledAccum)
		settledNow := r.epochSettledAccum
		r.epochSettledAccum = 0
		if settledNow > r.prevSettled {
			r.rose = true
		}
		useBF := r.Hybrid && r.rose && settledNow < r.prevSettled
		r.prevSettled = settledNow
		if s.MinBucket < 0 {
			ctrl = Ctrl{Cmd: CmdTerminate}
			r.terminated = true
			break
		}
		if useBF {
			r.Switched = true
			r.BFRounds++
			ctrl = Ctrl{Cmd: CmdBellmanFord}
			r.phase = phaseBF
			break
		}
		r.bucket = s.MinBucket
		ctrl = Ctrl{Cmd: CmdAdvance, Bucket: s.MinBucket}
		r.phase = phaseLight
	case phaseBF:
		if inFlight || s.Changed || s.Active > 0 {
			r.BFRounds++
			ctrl = Ctrl{Cmd: CmdBellmanFord}
			break
		}
		ctrl = Ctrl{Cmd: CmdTerminate}
		r.terminated = true
	}
	pe.Broadcast(epoch, ctrl)
}
