// Package trace records per-PE event timelines for the message-driven
// runtime. The paper's analysis leans on execution-behaviour claims — PEs
// idling at Δ-stepping barriers, updates waiting in holds for a broadcast,
// reductions overlapping work — and a timeline recorder is how such claims
// are observed rather than assumed. cmd/acic-run exposes it through
// -tracesummary; tests use it to assert scheduling properties (e.g. that
// idle-triggered pq drains really happen between messages).
//
// Each PE owns a private event buffer (no cross-PE synchronization on the
// hot path); buffers are bounded and drop the oldest half when full, so
// tracing a long run keeps the tail. Reading an individual PE's timeline is
// safe only after the run; the aggregate Summary is safe any time the PEs
// are stopped.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"acic/internal/simclock"
)

// Kind labels one traced event.
type Kind uint8

// Event kinds recorded by the runtime.
const (
	// KindDeliver: an application message was processed (Arg: app-defined).
	KindDeliver Kind = iota
	// KindIdleWork: the idle trigger performed background work.
	KindIdleWork
	// KindBlock: the PE blocked on an empty mailbox.
	KindBlock
	// KindWake: the PE resumed after blocking.
	KindWake
	// KindReduction: a reduction partial or completion passed through.
	KindReduction
	// KindBroadcast: a broadcast was handled.
	KindBroadcast
	// KindWorkSleep: the PE paid simulated compute debt (Arg: ns slept).
	KindWorkSleep
	// KindHoldDrain: a threshold broadcast released held updates back into
	// circulation (Arg: number of updates drained from tram_hold + pq_hold).
	KindHoldDrain
	numKinds
)

// String returns a short label.
func (k Kind) String() string {
	switch k {
	case KindDeliver:
		return "deliver"
	case KindIdleWork:
		return "idle-work"
	case KindBlock:
		return "block"
	case KindWake:
		return "wake"
	case KindReduction:
		return "reduction"
	case KindBroadcast:
		return "broadcast"
	case KindWorkSleep:
		return "work-sleep"
	case KindHoldDrain:
		return "hold-drain"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one timeline entry.
type Event struct {
	At   time.Duration // since Recorder creation
	Kind Kind
	Arg  int64
}

// Recorder collects per-PE timelines.
type Recorder struct {
	clk   simclock.Clock
	start time.Time
	cap   int
	pes   []peBuffer
}

type peBuffer struct {
	events  []Event
	dropped int64
}

// New creates a Recorder for numPEs PEs keeping at most capPerPE events
// each (oldest half dropped on overflow). capPerPE <= 0 selects 4096.
// Timestamps come from the wall clock; tests that need byte-stable
// timelines use NewWithClock with a simclock.Fake.
func New(numPEs, capPerPE int) *Recorder {
	return NewWithClock(numPEs, capPerPE, nil)
}

// NewWithClock is New with an injected clock (nil means the wall clock).
// A fake clock makes event timestamps — and therefore the Chrome trace
// export — fully deterministic, which the golden-file tests rely on.
func NewWithClock(numPEs, capPerPE int, clk simclock.Clock) *Recorder {
	if capPerPE <= 0 {
		capPerPE = 4096
	}
	clk = simclock.Default(clk)
	return &Recorder{
		clk:   clk,
		start: clk.Now(),
		cap:   capPerPE,
		pes:   make([]peBuffer, numPEs),
	}
}

// NumPEs returns the traced PE count.
func (r *Recorder) NumPEs() int { return len(r.pes) }

// Record appends an event to pe's timeline. It must be called only from
// that PE's goroutine.
func (r *Recorder) Record(pe int, kind Kind, arg int64) {
	b := &r.pes[pe]
	if len(b.events) >= r.cap {
		// Keep the newer half: long runs retain their tail, which is where
		// the interesting termination behaviour lives.
		half := len(b.events) / 2
		b.dropped += int64(half)
		copy(b.events, b.events[half:])
		b.events = b.events[:len(b.events)-half]
	}
	b.events = append(b.events, Event{At: r.clk.Since(r.start), Kind: kind, Arg: arg})
}

// Timeline returns pe's retained events in chronological order. Call only
// after the traced run has stopped.
func (r *Recorder) Timeline(pe int) []Event {
	return append([]Event(nil), r.pes[pe].events...)
}

// Dropped returns how many events pe's buffer discarded.
func (r *Recorder) Dropped(pe int) int64 { return r.pes[pe].dropped }

// Counts tallies events by kind for one PE.
func (r *Recorder) Counts(pe int) map[Kind]int64 {
	out := make(map[Kind]int64, int(numKinds))
	for _, e := range r.pes[pe].events {
		out[e.Kind]++
	}
	return out
}

// Summary aggregates per-PE statistics after a run.
type Summary struct {
	PE          int
	Events      int64
	Dropped     int64
	ByKind      [numKinds]int64
	BlockedTime time.Duration // total time between Block and Wake pairs
	SleptNanos  int64         // simulated compute paid (KindWorkSleep args)
}

// Summarize computes one Summary per PE. Call only after the run stopped.
func (r *Recorder) Summarize() []Summary {
	out := make([]Summary, len(r.pes))
	for pe := range r.pes {
		s := &out[pe]
		s.PE = pe
		s.Dropped = r.pes[pe].dropped
		var blockAt time.Duration = -1
		for _, e := range r.pes[pe].events {
			s.Events++
			s.ByKind[e.Kind]++
			switch e.Kind {
			case KindBlock:
				blockAt = e.At
			case KindWake:
				if blockAt >= 0 {
					s.BlockedTime += e.At - blockAt
					blockAt = -1
				}
			case KindWorkSleep:
				s.SleptNanos += e.Arg
			}
		}
	}
	return out
}

// WriteSummary renders the per-PE summaries as an aligned table. The
// blocked-time column is the direct observation of the paper's §I claim
// that bulk-synchronous PEs "sit idle while waiting ... to reach the
// synchronization barrier". The dropped column reports ring-buffer
// overflow; per PE, events-retained + dropped always equals the number of
// Record calls, so a non-zero value flags a truncated timeline rather
// than silently under-counting.
func (r *Recorder) WriteSummary(w io.Writer) error {
	sums := r.Summarize()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %-9s %-9s %-9s %-9s %-9s %-11s %-12s\n",
		"PE", "deliver", "idlework", "reduction", "broadcast", "dropped", "blocked", "workslept")
	for _, s := range sums {
		fmt.Fprintf(&sb, "%-4d %-9d %-9d %-9d %-9d %-9d %-11s %-12s\n",
			s.PE, s.ByKind[KindDeliver], s.ByKind[KindIdleWork],
			s.ByKind[KindReduction], s.ByKind[KindBroadcast], s.Dropped,
			s.BlockedTime.Round(time.Microsecond),
			time.Duration(s.SleptNanos).Round(time.Microsecond))
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// BusiestPE returns the PE with the most delivered+idle-work events — a
// quick load-imbalance probe.
func (r *Recorder) BusiestPE() int {
	best, bestN := 0, int64(-1)
	for pe := range r.pes {
		var n int64
		for _, e := range r.pes[pe].events {
			if e.Kind == KindDeliver || e.Kind == KindIdleWork {
				n++
			}
		}
		if n > bestN {
			best, bestN = pe, n
		}
	}
	return best
}

// MergedTimeline interleaves all PEs' events chronologically, tagging each
// with its PE, for whole-machine inspection in tests and debugging.
type TaggedEvent struct {
	PE int
	Event
}

// Merged returns the machine-wide chronological event list.
func (r *Recorder) Merged() []TaggedEvent {
	var out []TaggedEvent
	for pe := range r.pes {
		for _, e := range r.pes[pe].events {
			out = append(out, TaggedEvent{PE: pe, Event: e})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
