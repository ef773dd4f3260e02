package runtime

// ReportAfterWork is k, the work a PE does between a control broadcast and
// its next contribution, in units the algorithm counts (one queue pop or
// one unpacked update): the delay of the asynchronous iteration is counted
// in computation, not in seconds (Blanco et al., arXiv:2110.01409). A PE
// with nothing left to do pays at once, so k only paces the busy ones. It
// bounds the share of a busy PE's time spent on the control cycle from
// below and the staleness of what the cycle broadcasts from above. In the
// sweep recorded in EXPERIMENTS.md ("Spending the floor") 32 costs a large
// ACIC solve a third of its throughput and 64 to 4096 read the same; 256
// sits inside that range.
const ReportAfterWork = 256

// Debt is a PE's owed contribution under work pacing. A handler incurs it
// in OnBroadcast (Owe), credits its work against it (Worked) and, when it
// runs out of work, pays at once (Pay); whichever returns an epoch is the
// reduction the handler must Contribute to. The zero value owes nothing.
type Debt struct {
	epoch int64 // the reduction owed, meaningful while owed
	work  int   // units done since Owe
	owed  bool
}

// Owe incurs a contribution to reduction epoch, restarting the work count.
func (d *Debt) Owe(epoch int64) { d.epoch, d.work, d.owed = epoch, 0, true }

// Owed reports whether a contribution is outstanding.
func (d *Debt) Owed() bool { return d.owed }

// Worked credits n units of work and, once ReportAfterWork units have been
// done since Owe, settles the debt and returns the epoch to contribute to.
func (d *Debt) Worked(n int) (epoch int64, due bool) {
	if !d.owed {
		return 0, false
	}
	if d.work += n; d.work < ReportAfterWork {
		return 0, false
	}
	return d.Pay()
}

// Pay settles the debt whatever the work done, the payment of a PE that
// has run out of work, and returns the epoch to contribute to; ok is false
// when nothing was owed.
func (d *Debt) Pay() (epoch int64, ok bool) {
	if !d.owed {
		return 0, false
	}
	d.owed = false
	return d.epoch, true
}
