package core

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"acic/internal/histogram"
)

// ThresholdAudit is the introspection cycle's flight recorder: one record
// per completed reduction when Params.AuditTrace is set. It captures what
// the root saw (the merged histogram and quiescence counters), what it
// decided (t_tram/t_pq, and Growing: whether the active population had
// grown since the previous reduction, which keeps the low-parallelism
// release shut), and what that decision did to the holds — the
// before/after populations and drained counts of tram_hold and of the
// queue's updates above t_pq (pq_hold), and how many queued updates a
// falling t_pq re-held (PQReheld): PQHeldBefore − PQDrained + PQReheld ==
// PQHeldAfter, with one of PQDrained and PQReheld zero on each PE.
//
// Hold fields lag the thresholds by one cycle: the drain they describe was
// triggered by the broadcast of epoch-1, because each PE measures its
// holds inside OnBroadcast and the measurement rides the contribution to
// the next reduction. Epoch 0's record therefore always reports zero hold
// activity.
type ThresholdAudit struct {
	Epoch     int64 `json:"epoch"`
	Active    int64 `json:"active"`
	Created   int64 `json:"created"`
	Processed int64 `json:"processed"`
	TTram     int   `json:"t_tram"`
	TPQ       int   `json:"t_pq"`
	Growing   bool  `json:"growing"`

	TramHeldBefore int64 `json:"tram_held_before"`
	TramDrained    int64 `json:"tram_drained"`
	TramHeldAfter  int64 `json:"tram_held_after"`
	PQHeldBefore   int64 `json:"pq_held_before"`
	PQDrained      int64 `json:"pq_drained"`
	PQHeldAfter    int64 `json:"pq_held_after"`
	PQReheld       int64 `json:"pq_reheld"`

	// BucketIdx/BucketCount are the merged histogram in sparse parallel-
	// array form: BucketCount[i] active updates in bucket BucketIdx[i].
	// Empty buckets are omitted; RMAT histograms are overwhelmingly sparse.
	BucketIdx   []int   `json:"bucket_idx"`
	BucketCount []int64 `json:"bucket_count"`
}

// holdStats is the per-PE hold accounting that rides each reduction
// contribution; combineReduce sums it across the machine.
type holdStats struct {
	tramHeldBefore, tramDrained, tramHeldAfter int64
	pqHeldBefore, pqDrained, pqHeldAfter       int64
	pqReheld                                   int64
}

func (h *holdStats) add(o holdStats) {
	h.tramHeldBefore += o.tramHeldBefore
	h.tramDrained += o.tramDrained
	h.tramHeldAfter += o.tramHeldAfter
	h.pqHeldBefore += o.pqHeldBefore
	h.pqDrained += o.pqDrained
	h.pqHeldAfter += o.pqHeldAfter
	h.pqReheld += o.pqReheld
}

// newThresholdAudit assembles the root's record for one reduction.
func newThresholdAudit(epoch int64, global *histogram.Histogram, holds holdStats, th histogram.Thresholds, growing bool) ThresholdAudit {
	a := ThresholdAudit{
		Epoch:     epoch,
		Active:    global.Active(),
		Created:   global.Created,
		Processed: global.Processed,
		TTram:     th.Tram,
		TPQ:       th.PQ,
		Growing:   growing,

		TramHeldBefore: holds.tramHeldBefore,
		TramDrained:    holds.tramDrained,
		TramHeldAfter:  holds.tramHeldAfter,
		PQHeldBefore:   holds.pqHeldBefore,
		PQDrained:      holds.pqDrained,
		PQHeldAfter:    holds.pqHeldAfter,
		PQReheld:       holds.pqReheld,
	}
	for i := 0; i < global.Top(); i++ {
		if c := global.Bucket(i); c != 0 {
			a.BucketIdx = append(a.BucketIdx, i)
			a.BucketCount = append(a.BucketCount, c)
		}
	}
	return a
}

// WriteAuditJSONL writes one JSON object per line — the format Perfetto
// post-processing scripts and jq pipelines consume directly.
func WriteAuditJSONL(w io.Writer, records []ThresholdAudit) error {
	enc := json.NewEncoder(w)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			return fmt.Errorf("core: audit record %d: %w", i, err)
		}
	}
	return nil
}

// auditCSVHeader is the column order of WriteAuditCSV.
var auditCSVHeader = []string{
	"epoch", "active", "created", "processed", "t_tram", "t_pq", "growing",
	"tram_held_before", "tram_drained", "tram_held_after",
	"pq_held_before", "pq_drained", "pq_held_after", "pq_reheld", "buckets",
}

// WriteAuditCSV writes the audit as CSV for spreadsheet analysis. The
// sparse histogram packs into the final column as ";"-joined "idx:count"
// pairs so the file stays one row per reduction.
func WriteAuditCSV(w io.Writer, records []ThresholdAudit) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(auditCSVHeader); err != nil {
		return err
	}
	for i := range records {
		a := &records[i]
		var sb strings.Builder
		for j, idx := range a.BucketIdx {
			if j > 0 {
				sb.WriteByte(';')
			}
			sb.WriteString(strconv.Itoa(idx))
			sb.WriteByte(':')
			sb.WriteString(strconv.FormatInt(a.BucketCount[j], 10))
		}
		row := []string{
			strconv.FormatInt(a.Epoch, 10),
			strconv.FormatInt(a.Active, 10),
			strconv.FormatInt(a.Created, 10),
			strconv.FormatInt(a.Processed, 10),
			strconv.Itoa(a.TTram),
			strconv.Itoa(a.TPQ),
			strconv.FormatBool(a.Growing),
			strconv.FormatInt(a.TramHeldBefore, 10),
			strconv.FormatInt(a.TramDrained, 10),
			strconv.FormatInt(a.TramHeldAfter, 10),
			strconv.FormatInt(a.PQHeldBefore, 10),
			strconv.FormatInt(a.PQDrained, 10),
			strconv.FormatInt(a.PQHeldAfter, 10),
			strconv.FormatInt(a.PQReheld, 10),
			sb.String(),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
