package core

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"testing"

	"acic/internal/gen"
	"acic/internal/metrics"
	"acic/internal/netsim"
	"acic/internal/trace"
)

// TestAuditTrace checks the reduction flight recorder: one record per
// completed reduction, ascending epochs, hold conservation, and the final
// record agreeing with the terminating quiescence state.
func TestAuditTrace(t *testing.T) {
	g := gen.Uniform(1500, 12000, gen.Config{Seed: 41})
	p := DefaultParams()
	p.AuditTrace = true
	// Aggressive pq gating so holds actually see traffic.
	p.PPQ = 0.05
	res := runAndVerify(t, g, 0, Options{Topo: netsim.SingleNode(4), Params: p})
	audit := res.Stats.AuditTrace
	if len(audit) == 0 {
		t.Fatal("no audit records")
	}
	if int64(len(audit)) != res.Stats.Reductions {
		t.Errorf("audit length %d != reductions %d", len(audit), res.Stats.Reductions)
	}
	for i, a := range audit {
		// Epochs are strictly increasing but not dense: the delayed-
		// broadcast path numbers broadcasts by the reduction count, so the
		// epoch after 0 is 2.
		if i > 0 && a.Epoch <= audit[i-1].Epoch {
			t.Errorf("record %d epoch %d not after %d", i, a.Epoch, audit[i-1].Epoch)
		}
		if a.TramHeldAfter != a.TramHeldBefore-a.TramDrained {
			t.Errorf("epoch %d: tram holds not conserved: before %d drained %d after %d",
				a.Epoch, a.TramHeldBefore, a.TramDrained, a.TramHeldAfter)
		}
		// A falling t_pq re-holds queued updates, so the pq side closes
		// with them added back.
		if a.PQHeldAfter != a.PQHeldBefore-a.PQDrained+a.PQReheld {
			t.Errorf("epoch %d: pq holds not conserved: before %d drained %d reheld %d after %d",
				a.Epoch, a.PQHeldBefore, a.PQDrained, a.PQReheld, a.PQHeldAfter)
		}
		if min(a.TramHeldBefore, a.TramDrained, a.TramHeldAfter, a.PQHeldBefore, a.PQDrained, a.PQHeldAfter, a.PQReheld) < 0 {
			t.Errorf("epoch %d: negative hold field: %+v", a.Epoch, a)
		}
		if len(a.BucketIdx) != len(a.BucketCount) {
			t.Errorf("epoch %d: parallel bucket arrays disagree: %d vs %d",
				a.Epoch, len(a.BucketIdx), len(a.BucketCount))
		}
		var bsum int64
		for _, c := range a.BucketCount {
			bsum += c
		}
		if bsum != a.Active {
			t.Errorf("epoch %d: bucket sum %d != active %d", a.Epoch, bsum, a.Active)
		}
	}
	last := audit[len(audit)-1]
	if last.Created != last.Processed {
		t.Errorf("terminating record not quiescent: created %d processed %d",
			last.Created, last.Processed)
	}
	if last.Created != res.Stats.UpdatesCreated {
		t.Errorf("terminating record created %d != stats %d", last.Created, res.Stats.UpdatesCreated)
	}
}

// TestMetricsRegistryCoherence runs ACIC with a shared registry and checks
// the "core."/"tram."/"netsim."/"runtime." instruments against the legacy
// Stats views they back (or mirror) — the accessors-stay-thin-views
// contract of the observability layer.
func TestMetricsRegistryCoherence(t *testing.T) {
	g := gen.Uniform(1500, 12000, gen.Config{Seed: 42})
	topo := netsim.SingleNode(4)
	reg := metrics.New(topo.TotalPEs())
	res := runAndVerify(t, g, 0, Options{Topo: topo, Metrics: reg})
	s := res.Stats

	for _, c := range []struct {
		name string
		want int64
	}{
		{"core.updates_created", s.UpdatesCreated},
		{"core.updates_suppressed", s.UpdatesSuppressed},
		{"core.updates_processed", s.UpdatesProcessed},
		{"core.updates_rejected", s.UpdatesRejected},
		{"core.relaxations", s.Relaxations},
		{"core.reductions", s.Reductions},
		{"tram.inserts", s.TramStats.Inserts},
		{"tram.batches", s.TramStats.Batches},
		{"tram.items", s.TramStats.Items},
		{"tram.pool_gets", s.TramStats.PoolGets},
		{"tram.pool_puts", s.TramStats.PoolPuts},
		{"netsim.messages_sent", s.Network.MessagesSent},
		{"netsim.items_sent", s.Network.ItemsSent},
		{"netsim.dropped", s.Network.Dropped},
	} {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d (stats view)", c.name, got, c.want)
		}
	}
	if got := reg.Gauge("netsim.max_queue_depth").Max(); got != s.Network.MaxQueueDepth {
		t.Errorf("netsim.max_queue_depth = %d, want %d", got, s.Network.MaxQueueDepth)
	}
	// Scheduler telemetry exists and is plausible: every PE dispatched at
	// least the startMsg, and the batch-size histogram saw every batch the
	// fabric carried plus intra-process demux forwards.
	if got := reg.Counter("runtime.app_delivered").Value(); got == 0 {
		t.Error("runtime.app_delivered is zero")
	}
	if got := reg.Counter("runtime.reductions").Value(); got == 0 {
		t.Error("runtime.reductions is zero")
	}
	if got := reg.Histogram("core.batch_items").Count(); got < s.TramStats.Batches {
		t.Errorf("core.batch_items count %d < tram batches %d", got, s.TramStats.Batches)
	}

	// The snapshot walks everything; spot-check it round-trips one value.
	snap := reg.Snapshot()
	if got := snap.Counter("core.updates_created"); got != s.UpdatesCreated {
		t.Errorf("snapshot core.updates_created = %d, want %d", got, s.UpdatesCreated)
	}
}

// TestHoldDrainAccounting cross-checks three independent observers of hold
// drains: the audit records, the "core.hold_drained" counter, and the
// trace recorder's KindHoldDrain instants. All three must agree on the
// total number of updates released from holds.
func TestHoldDrainAccounting(t *testing.T) {
	g := gen.Uniform(2000, 16000, gen.Config{Seed: 43})
	topo := netsim.SingleNode(4)
	reg := metrics.New(topo.TotalPEs())
	rec := trace.New(topo.TotalPEs(), 1<<20) // ample: no drops may corrupt the tally
	p := DefaultParams()
	p.AuditTrace = true
	p.PTram = 0.5 // gate the send side hard enough that tram_hold sees traffic
	p.PPQ = 0.05
	res := runAndVerify(t, g, 0, Options{Topo: topo, Params: p, Metrics: reg, Trace: rec})

	var auditDrained int64
	for _, a := range res.Stats.AuditTrace {
		auditDrained += a.TramDrained + a.PQDrained
	}
	counterDrained := reg.Counter("core.hold_drained").Value()
	var traceDrained int64
	for pe := 0; pe < topo.TotalPEs(); pe++ {
		if reg.Counter("core.hold_drained") == nil {
			t.Fatal("counter missing")
		}
		if rec.Dropped(pe) != 0 {
			t.Fatalf("trace dropped events on PE %d; raise the test's capPerPE", pe)
		}
		for _, e := range rec.Timeline(pe) {
			if e.Kind == trace.KindHoldDrain {
				traceDrained += e.Arg
			}
		}
	}
	if counterDrained != traceDrained {
		t.Errorf("core.hold_drained %d != trace hold-drain sum %d", counterDrained, traceDrained)
	}
	// The audit misses at most the final broadcast's drain (terminate=true
	// broadcasts never contribute again), and the terminating cycle drains
	// nothing because thresholds only rise; in practice all three agree.
	if auditDrained != counterDrained {
		t.Errorf("audit drained %d != counter %d", auditDrained, counterDrained)
	}
}

// TestAuditExportFormats checks both writers: JSONL round-trips record by
// record, CSV has the documented header and one row per reduction.
func TestAuditExportFormats(t *testing.T) {
	g := gen.Uniform(800, 6400, gen.Config{Seed: 44})
	p := DefaultParams()
	p.AuditTrace = true
	res := runAndVerify(t, g, 0, Options{Topo: netsim.SingleNode(4), Params: p})
	records := res.Stats.AuditTrace

	var jbuf bytes.Buffer
	if err := WriteAuditJSONL(&jbuf, records); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jbuf.String()), "\n")
	if len(lines) != len(records) {
		t.Fatalf("JSONL has %d lines, want %d", len(lines), len(records))
	}
	for i, line := range lines {
		var back ThresholdAudit
		if err := json.Unmarshal([]byte(line), &back); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if back.Epoch != records[i].Epoch || back.Created != records[i].Created || back.Growing != records[i].Growing {
			t.Fatalf("line %d did not round-trip: %+v vs %+v", i, back, records[i])
		}
	}
	// The run starts growing and ends draining, so both branches of the
	// threshold rule show.
	var growing, draining int
	for _, a := range records {
		if a.Growing {
			growing++
		} else {
			draining++
		}
	}
	if growing == 0 || draining == 0 {
		t.Errorf("%d growing and %d not-growing reductions, want both", growing, draining)
	}

	var cbuf bytes.Buffer
	if err := WriteAuditCSV(&cbuf, records); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&cbuf).ReadAll()
	if err != nil {
		t.Fatalf("CSV unreadable: %v", err)
	}
	if len(rows) != len(records)+1 {
		t.Fatalf("CSV has %d rows, want header + %d", len(rows), len(records))
	}
	for i, col := range auditCSVHeader {
		if rows[0][i] != col {
			t.Errorf("CSV header[%d] = %q, want %q", i, rows[0][i], col)
		}
	}
	col := slices.Index(auditCSVHeader, "growing")
	for i, a := range records {
		if got := rows[i+1][col]; got != strconv.FormatBool(a.Growing) {
			t.Fatalf("CSV row %d: growing %q, record %v", i, got, a.Growing)
		}
	}
}
