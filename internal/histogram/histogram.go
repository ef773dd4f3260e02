// Package histogram implements the update histograms at the heart of ACIC
// (§II-B of the paper) and the threshold computation of Algorithm 1.
//
// Each PE keeps a local Histogram counting its *active* updates — updates
// created but not yet processed — bucketed by distance value. The bucket of
// an update with distance d is
//
//	bucket(d) = the b with b·width ≤ d < (b+1)·width
//
// (products rounded to float64, b clamped to the bucket range), where the
// paper fixes width = log(|V|) and uses 512 buckets (Fig. 1). Defined by its
// edges, a bucket can be found with a stored reciprocal instead of d / width,
// and b·width is an exact lower bound on every distance counted in bucket b.
// Increments happen on the creating PE and decrements on the processing PE,
// so an individual local histogram may hold negative bucket counts; only the
// global sum across all PEs is meaningful, which is why the reduction sums
// raw signed counters rather than clamping.
//
// The root PE combines local histograms with Merge and derives the tram and
// pq thresholds with Thresholds (Algorithm 1). A threshold is a bucket
// index: the smallest bucket such that the cumulative count of active
// updates at or below it reaches a caller-provided fraction p of all active
// updates.
package histogram

import (
	"fmt"
	"math"
	"strings"
)

// DefaultBuckets is the bucket count used throughout the paper (Fig. 1).
const DefaultBuckets = 512

// Histogram is a fixed-size array of signed bucket counters plus the
// created/processed counters that ride along with every reduction (§II-D).
// The zero value is not usable; construct with New.
type Histogram struct {
	width   float64
	inv     float64 // 1/width, fixed in New so BucketOf never divides
	buckets []int64

	// Created and Processed mirror the per-PE "updates created locally" and
	// "updates processed locally" counters reduced alongside the histogram
	// for quiescence detection.
	Created   int64
	Processed int64
}

// Width returns the bucket width.
func (h *Histogram) Width() float64 { return h.width }

// PaperWidth returns the paper's bucket width log(|V|) (natural log),
// clamped below at 1 so tiny test graphs still bucket sensibly.
func PaperWidth(numVertices int) float64 {
	w := math.Log(float64(numVertices))
	if w < 1 {
		w = 1
	}
	return w
}

// New returns a Histogram with the given number of buckets of the given
// width. It panics on a non-positive bucket count, or a width that is not
// positive and finite or whose reciprocal overflows.
func New(bucketCount int, width float64) *Histogram {
	if bucketCount <= 0 {
		panic("histogram: non-positive bucket count")
	}
	inv := 1 / width
	if width <= 0 || math.IsNaN(width) || math.IsInf(width, 0) || math.IsInf(inv, 0) {
		panic("histogram: invalid bucket width")
	}
	return &Histogram{width: width, inv: inv, buckets: make([]int64, bucketCount)}
}

// NumBuckets returns the number of buckets.
func (h *Histogram) NumBuckets() int { return len(h.buckets) }

// BucketOf maps a distance to its bucket index, clamping to the valid range.
// Distances beyond the last bucket accumulate in the last bucket, matching
// the fixed 512-bucket layout of the paper. The range check happens in
// float space: converting first would overflow int for +Inf or very large
// d (the conversion result is implementation-defined) and index out of
// bounds.
//
// NaN lands in the LAST bucket, like +Inf. A NaN distance is a poisoned
// value, not near-zero work: counting it in bucket 0 would inflate the low
// end of the cumulative distribution and drag both thresholds down,
// throttling healthy traffic. The top bucket keeps it out of the threshold
// computation's hot range, consistent with every other not-a-finite-small
// distance.
//
// In range, d·(1/width) is off by less than one bucket, so one step against
// the bucket's own edges lands on the b with b·width ≤ d < (b+1)·width.
//
//acic:noalloc
func (h *Histogram) BucketOf(d float64) int {
	last := len(h.buckets) - 1
	if math.IsNaN(d) {
		return last
	}
	if d <= 0 {
		return 0
	}
	x := d * h.inv
	if x >= float64(len(h.buckets)) {
		return last
	}
	b := int(x)
	if float64(b)*h.width > d {
		b--
	} else if float64(b+1)*h.width <= d && b < last {
		b++
	}
	return b
}

// AddCreated records the creation of an update with distance d: the bucket
// is incremented and the created counter advances (§II-B). It returns the
// bucket, so a caller that routes the update by threshold computes it once.
func (h *Histogram) AddCreated(d float64) int {
	b := h.BucketOf(d)
	h.buckets[b]++
	h.Created++
	return b
}

// AddProcessed records that the processing of an update with distance d
// completed (it was rejected, superseded, or all onward updates were
// created): the bucket is decremented and the processed counter advances.
func (h *Histogram) AddProcessed(d float64) {
	h.buckets[h.BucketOf(d)]--
	h.Processed++
}

// Bucket returns the raw signed count of bucket i.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i] }

// SetBucket overwrites the raw count of bucket i. It exists for the wire
// codec, which rebuilds a histogram from its serialized sparse buckets;
// algorithm code mutates buckets only through AddCreated/AddProcessed so
// Created/Processed stay consistent with the bucket contents.
func (h *Histogram) SetBucket(i int, v int64) { h.buckets[i] = v }

// Active returns Created - Processed, the number of updates this histogram
// believes are in flight. Only meaningful on a merged global histogram.
func (h *Histogram) Active() int64 { return h.Created - h.Processed }

// Positive returns the sum of the positive bucket counts: the active
// population the threshold rules work with, where a bucket driven negative
// by a decrement that overtook its increment counts as empty.
func (h *Histogram) Positive() int64 {
	var s int64
	for _, b := range h.buckets {
		if b > 0 {
			s += b
		}
	}
	return s
}

// Sum returns the sum of all bucket counts. On a merged global histogram
// this equals Active.
func (h *Histogram) Sum() int64 {
	var s int64
	for _, b := range h.buckets {
		s += b
	}
	return s
}

// Snapshot returns a copy of the histogram for contribution to a reduction,
// then clears nothing: contributions are cumulative state, and the merge at
// the root uses the latest snapshot from each PE.
func (h *Histogram) Snapshot() *Histogram {
	c := &Histogram{
		width:     h.width,
		inv:       h.inv,
		buckets:   append([]int64(nil), h.buckets...),
		Created:   h.Created,
		Processed: h.Processed,
	}
	return c
}

// SnapshotInto copies h into dst — Snapshot without the allocation, for
// callers that recycle contribution histograms through a pool. It panics
// if shapes differ (a pooled histogram always matches its run's shape).
func (h *Histogram) SnapshotInto(dst *Histogram) {
	if len(dst.buckets) != len(h.buckets) {
		panic(fmt.Sprintf("histogram: snapshot of %d buckets into %d", len(h.buckets), len(dst.buckets)))
	}
	dst.width, dst.inv = h.width, h.inv
	copy(dst.buckets, h.buckets)
	dst.Created = h.Created
	dst.Processed = h.Processed
}

// Merge adds other into h bucket-wise and accumulates the counters. It
// panics if shapes differ.
func (h *Histogram) Merge(other *Histogram) {
	if len(h.buckets) != len(other.buckets) {
		panic(fmt.Sprintf("histogram: merging %d buckets into %d", len(other.buckets), len(h.buckets)))
	}
	if h.width != other.width {
		panic("histogram: merging histograms with different widths")
	}
	for i, b := range other.buckets {
		h.buckets[i] += b
	}
	h.Created += other.Created
	h.Processed += other.Processed
}

// Reset zeroes all buckets and counters.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.Created = 0
	h.Processed = 0
}

// LowestNonEmpty returns the index of the lowest bucket with a positive
// count, or -1 if none. Fig. 1's "lowest bucket number with remaining
// updates" is this value on the merged histogram.
func (h *Histogram) LowestNonEmpty() int {
	for i, b := range h.buckets {
		if b > 0 {
			return i
		}
	}
	return -1
}

// HighestNonEmpty returns the index of the highest bucket with a positive
// count, or -1 if none.
func (h *Histogram) HighestNonEmpty() int {
	for i := len(h.buckets) - 1; i >= 0; i-- {
		if h.buckets[i] > 0 {
			return i
		}
	}
	return -1
}

// PercentileBucket implements the bucket(p) routine of Algorithm 1: walk the
// buckets from lowest to highest accumulating counts and return the first
// bucket where the running sum reaches fraction p (in (0,1]) of total.
// Negative bucket counts (possible in merged histograms mid-flight due to
// remote decrements racing local increments) are treated as zero during the
// walk, and total is the sum of those clamped counts.
//
// If the histogram is empty, the last bucket index is returned so that every
// pending update clears the threshold and the algorithm can drain.
func (h *Histogram) PercentileBucket(p float64) int {
	if p <= 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("histogram: percentile fraction %v out of (0,1]", p))
	}
	total := h.Positive()
	if total == 0 {
		return len(h.buckets) - 1
	}
	target := p * float64(total)
	var running int64
	for i, b := range h.buckets {
		if b > 0 {
			running += b
		}
		if float64(running) >= target {
			return i
		}
	}
	return len(h.buckets) - 1
}

// Thresholds holds the two bucket thresholds broadcast after a reduction.
type Thresholds struct {
	Tram int // t_tram: updates with bucket > Tram stay in tram_hold
	PQ   int // t_pq: accepted updates with bucket > PQ stay in pq_hold
}

// Params configures the root's threshold policy (§III).
type Params struct {
	// PTram and PPQ are the user-provided percentile fractions p_tram and
	// p_pq in (0,1].
	PTram float64
	PPQ   float64
	// LowWatermarkPerPE is the "low parallelism" limit: when the number of
	// active updates is at most LowWatermarkPerPE × numPEs and not growing,
	// both thresholds are raised to the highest bucket so every update flows
	// freely. The paper fixes this at 100 (§III-a).
	LowWatermarkPerPE int64
}

// DefaultParams returns the optimal parameters found in §IV-E:
// p_tram = 0.999 and p_pq = 0.05, with the paper's low watermark of 100
// active updates per PE.
func DefaultParams() Params {
	return Params{PTram: 0.999, PPQ: 0.05, LowWatermarkPerPE: 100}
}

// ComputeThresholds implements the root's side of Algorithm 1 minus the
// termination check (which belongs to the quiescence machinery): given the
// merged global histogram, the PE count, the policy parameters and whether
// the active population (Positive) grew since the previous reduction, it
// returns the thresholds to broadcast.
//
// The low-parallelism release is meant for the tail, where the frontier
// shrinks. A frontier below the watermark that is still growing is the
// start of a run, not its tail: releasing every bucket there lets it grow
// in unordered Bellman-Ford fashion, so it gets the percentile thresholds.
func ComputeThresholds(global *Histogram, numPEs int, p Params, growing bool) Thresholds {
	if !growing && global.Positive() <= p.LowWatermarkPerPE*int64(numPEs) {
		// Low parallelism: release everything (§III-a; prose form of
		// Algorithm 1's low-count branch).
		last := global.NumBuckets() - 1
		return Thresholds{Tram: last, PQ: last}
	}
	return Thresholds{
		Tram: global.PercentileBucket(p.PTram),
		PQ:   global.PercentileBucket(p.PPQ),
	}
}

// ComputeSmoothThresholds implements the refinement sketched in the
// paper's future-work section (§V): instead of the two-tier rule — "all
// buckets when active ≤ watermark, fixed percentile otherwise" — the
// threshold percentile becomes a continuous function of the whole
// histogram's population. The effective fraction interpolates between the
// configured percentile (heavily loaded) and 1.0 (drained):
//
//	p_eff = min(1, p + (1-p) · (watermark·numPEs) / active)
//
// so as the machine approaches the low-parallelism tail the thresholds
// open smoothly rather than snapping, and under heavy load they converge
// to the paper's fixed percentiles. Like the two-tier rule's release, the
// boost applies only while the active population is not growing. The
// ablation benchmark contrasts this policy with the paper's two-tier rule.
func ComputeSmoothThresholds(global *Histogram, numPEs int, p Params, growing bool) Thresholds {
	active := global.Positive()
	last := global.NumBuckets() - 1
	if active == 0 {
		return Thresholds{Tram: last, PQ: last}
	}
	var boost float64
	if !growing {
		boost = float64(p.LowWatermarkPerPE*int64(numPEs)) / float64(active)
	}
	bucketFor := func(base float64) int {
		v := base + (1-base)*boost
		if v >= 1 {
			// Fully open: future updates of any distance flow too, exactly
			// like the two-tier rule's low-parallelism branch.
			return last
		}
		return global.PercentileBucket(v)
	}
	return Thresholds{Tram: bucketFor(p.PTram), PQ: bucketFor(p.PPQ)}
}

// String renders a compact sparkline of the histogram for logs and the
// Fig. 1 reproduction.
func (h *Histogram) String() string {
	var max int64
	for _, b := range h.buckets {
		if b > max {
			max = b
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "histogram[%d buckets, width %.2f, active %d]", len(h.buckets), h.width, h.Sum())
	if max == 0 {
		return sb.String()
	}
	levels := []rune(" ▁▂▃▄▅▆▇█")
	sb.WriteString(" ")
	// Downsample to at most 64 columns.
	cols := 64
	if len(h.buckets) < cols {
		cols = len(h.buckets)
	}
	per := (len(h.buckets) + cols - 1) / cols
	for c := 0; c < cols; c++ {
		var colMax int64
		for i := c * per; i < (c+1)*per && i < len(h.buckets); i++ {
			if h.buckets[i] > colMax {
				colMax = h.buckets[i]
			}
		}
		idx := int(colMax * int64(len(levels)-1) / max)
		sb.WriteRune(levels[idx])
	}
	return sb.String()
}
