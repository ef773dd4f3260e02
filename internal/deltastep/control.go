package deltastep

import "acic/internal/runtime"

// The Δ-stepping control plane: the commands the root broadcasts, the
// status every PE reduces after executing one, and the root's phase state
// machine. It knows nothing of how vertices and edges are laid out; the
// data plane in handler.go executes its commands.

// command is one bulk-synchronous step the root orders.
type command uint8

const (
	// cmdDrainLight: drain the current bucket, relax light edges.
	cmdDrainLight command = iota
	// cmdWait: a barrier retry — requests are still in flight; process
	// arrivals and report again.
	cmdWait
	// cmdHeavy: relax heavy edges of the vertices settled from the
	// current bucket.
	cmdHeavy
	// cmdAdvance: move to the given bucket and drain it.
	cmdAdvance
	// cmdBellmanFord: one Bellman-Ford round over the active frontier.
	cmdBellmanFord
	// cmdTerminate: stop.
	cmdTerminate
)

// ctrlMsg is the broadcast payload.
type ctrlMsg struct {
	cmd    command
	bucket int32
}

// status is the per-PE contribution reduced after every command.
type status struct {
	Sent, Received int64 // cumulative request counters
	MinBucket      int32 // lowest non-empty local bucket, or -1
	Settled        int64 // vertices first removed from the current bucket since the last contribution
	Active         int64 // BF-mode frontier size
	Changed        bool  // any distance improved since last contribution
}

// combineStatus is the runtime.Config.Combine for status contributions.
func combineStatus(a, b any) any {
	av, bv := a.(*status), b.(*status)
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

// rootState is the root PE's phase state machine. The handler embeds it to
// get runtime.Handler's OnReduction; only PE 0's copy ever runs. The first
// block of counters is the run's synchronization bill, read after
// termination.
type rootState struct {
	// hybrid enables the RIKEN switch to Bellman-Ford once the per-bucket
	// settled count has passed a local maximum (§IV-A).
	hybrid bool

	supersteps       int64
	bucketsProcessed int64
	bfRounds         int64
	switched         bool
	settledPerEpoch  []int64 // newly settled vertices per bucket epoch

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

// OnReduction consumes one combined status and broadcasts the next command.
func (r *rootState) OnReduction(pe *runtime.PE, epoch int64, value any) {
	if r.terminated {
		return
	}
	s := value.(*status)
	r.supersteps++

	// A barrier is only complete when every sent request was received.
	inFlight := s.Sent != s.Received

	var ctrl ctrlMsg
	switch r.phase {
	case phaseLight, phaseLightDrain:
		r.epochSettledAccum += s.Settled
		if inFlight {
			ctrl = ctrlMsg{cmd: cmdWait}
			r.phase = phaseLightDrain
			break
		}
		if s.MinBucket >= 0 && s.MinBucket <= r.bucket {
			// Current bucket refilled (or not yet empty): another light
			// iteration.
			ctrl = ctrlMsg{cmd: cmdDrainLight, bucket: r.bucket}
			r.phase = phaseLight
			break
		}
		// Bucket empty everywhere: heavy phase.
		ctrl = ctrlMsg{cmd: cmdHeavy}
		r.phase = phaseHeavy
	case phaseHeavy, phaseHeavyDrain:
		if inFlight {
			ctrl = ctrlMsg{cmd: cmdWait}
			r.phase = phaseHeavyDrain
			break
		}
		// Epoch (bucket) complete.
		r.bucketsProcessed++
		r.settledPerEpoch = append(r.settledPerEpoch, r.epochSettledAccum)
		settledNow := r.epochSettledAccum
		r.epochSettledAccum = 0
		if settledNow > r.prevSettled {
			r.rose = true
		}
		useBF := r.hybrid && r.rose && settledNow < r.prevSettled
		r.prevSettled = settledNow
		if s.MinBucket < 0 {
			ctrl = ctrlMsg{cmd: cmdTerminate}
			r.terminated = true
			break
		}
		if useBF {
			r.switched = true
			r.bfRounds++
			ctrl = ctrlMsg{cmd: cmdBellmanFord}
			r.phase = phaseBF
			break
		}
		r.bucket = s.MinBucket
		ctrl = ctrlMsg{cmd: cmdAdvance, bucket: s.MinBucket}
		r.phase = phaseLight
	case phaseBF:
		if inFlight || s.Changed || s.Active > 0 {
			r.bfRounds++
			ctrl = ctrlMsg{cmd: cmdBellmanFord}
			break
		}
		ctrl = ctrlMsg{cmd: cmdTerminate}
		r.terminated = true
	}
	pe.Broadcast(epoch, ctrl)
}
