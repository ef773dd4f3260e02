package runtime

import "testing"

func TestDebtWithoutOweNeverPays(t *testing.T) {
	var d Debt
	if d.Owed() {
		t.Fatal("zero Debt owes a contribution")
	}
	if _, due := d.Worked(10 * ReportAfterWork); due {
		t.Error("Worked paid a debt that was never incurred")
	}
	if _, ok := d.Pay(); ok {
		t.Error("Pay paid a debt that was never incurred")
	}
}

func TestDebtPaysOnceAtTheKthUnit(t *testing.T) {
	var d Debt
	d.Owe(7)
	for i := 1; i < ReportAfterWork; i++ {
		if _, due := d.Worked(1); due {
			t.Fatalf("paid after %d units, want %d", i, ReportAfterWork)
		}
	}
	if !d.Owed() {
		t.Fatal("debt cleared before the k-th unit")
	}
	epoch, due := d.Worked(1)
	if !due || epoch != 7 {
		t.Fatalf("k-th unit: Worked = (%d, %v), want (7, true)", epoch, due)
	}
	if d.Owed() {
		t.Error("debt still owed after paying")
	}
	if _, due := d.Worked(ReportAfterWork); due {
		t.Error("the same debt paid twice")
	}
}

func TestDebtBatchedWorkPays(t *testing.T) {
	var d Debt
	d.Owe(1)
	if _, due := d.Worked(ReportAfterWork - 1); due {
		t.Fatal("paid below k")
	}
	if epoch, due := d.Worked(ReportAfterWork); !due || epoch != 1 {
		t.Fatalf("Worked = (%d, %v), want (1, true)", epoch, due)
	}
}

// TestDebtWorkPatterns drives one debt through scripted cycles: each step
// credits a batch of work (n ≥ 0) or, with n < 0, runs out of work and pays
// at once. The debt must settle exactly at the step named by payAt, to the
// epoch owed, and never again.
func TestDebtWorkPatterns(t *testing.T) {
	const k = ReportAfterWork
	const idle = -1
	cases := []struct {
		name  string
		steps []int
		payAt int // index into steps, or -1 when the debt stays owed
	}{
		{"units", repeat(1, k), k - 1},
		{"halves", []int{k / 2, k - k/2, 1}, 1},
		{"one-batch-of-k", []int{k, 1}, 0},
		{"oversized-batch", []int{10 * k, k}, 0},
		{"empty-batches-first", []int{0, 0, k - 1, 0, 1}, 4},
		{"short-then-idle", []int{k - 1, idle, 1}, 1},
		{"idle-without-work", []int{idle, idle}, 0},
		{"short-of-k", []int{k / 4, k / 4, k / 4}, -1},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var d Debt
			d.Owe(11)
			for i, n := range c.steps {
				var epoch int64
				var paid bool
				if n == idle {
					epoch, paid = d.Pay()
				} else {
					epoch, paid = d.Worked(n)
				}
				if paid != (i == c.payAt) {
					t.Fatalf("step %d (%d): paid = %v, want %v", i, n, paid, i == c.payAt)
				}
				if paid && epoch != 11 {
					t.Fatalf("step %d: paid epoch %d, want 11", i, epoch)
				}
			}
			if d.Owed() != (c.payAt < 0) {
				t.Errorf("Owed() = %v after the script, want %v", d.Owed(), c.payAt < 0)
			}
		})
	}
}

func repeat(n, times int) []int {
	s := make([]int, times)
	for i := range s {
		s[i] = n
	}
	return s
}

func TestDebtIdlePayment(t *testing.T) {
	var d Debt
	d.Owe(3)
	d.Worked(1)
	epoch, ok := d.Pay()
	if !ok || epoch != 3 {
		t.Fatalf("Pay = (%d, %v), want (3, true)", epoch, ok)
	}
	if _, ok := d.Pay(); ok {
		t.Error("Pay paid the same debt twice")
	}
	// A new debt restarts the work count: the units credited to the paid
	// one do not carry over.
	d.Owe(4)
	if _, due := d.Worked(ReportAfterWork - 1); due {
		t.Error("work from the previous debt carried over")
	}
}
