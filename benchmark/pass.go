package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"acic/internal/seq"
)

// runConfig is what one pass of one workload is given.
type runConfig struct {
	seed    uint64
	seconds float64 // measuring time
	traced  bool    // per-layer pass: tracing on, probes after
	quick   bool    // smoke-test sizes
}

// outcome is what a pass hands back: its numbers, the failure count the
// contract's last line carries, and the traced pass's spans.
type outcome struct {
	res       *results
	attempted int
	failed    int
	spans     *spanLog
}

// setupReps is how often an untraced pass sets the system up: setup_s is the
// median over them and the last instance is the one measured. The smoke
// test sets up once.
func (c runConfig) setupReps() int {
	if c.quick {
		return 1
	}
	return 3
}

// measureSetup runs setup reps times, discarding all but the last instance,
// and returns that instance with the median set-up seconds and the median
// heap (MB) a set-up leaves live after a collection.
func measureSetup[T any](reps int, setup func() (T, error), discard func(T)) (last T, secs, heapMB float64, err error) {
	var ss, hs []float64
	for i := 0; i < reps; i++ {
		before := liveHeap()
		t0 := time.Now()
		inst, err := setup()
		if err != nil {
			return last, 0, 0, err
		}
		ss = append(ss, time.Since(t0).Seconds())
		hs = append(hs, float64(liveHeap()-before)/(1<<20))
		if i < reps-1 {
			discard(inst)
			continue
		}
		last = inst
	}
	return last, median(ss), median(hs), nil
}

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC() // the second pass frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// usage is a point reading of the process's cumulative costs.
type usage struct {
	mallocs uint64
	cpu     time.Duration // user + system
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		mallocs: ms.Mallocs,
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// opSample is one completed op as the end-to-end metrics see it.
type opSample struct {
	ms     float64
	solver bool  // the op ran the ACIC machine: every solve-* op, a serve-* miss
	edges  int64 // edges reachable from its source (TEPS numerator), solver ops only
}

// setEndToEnd derives the metrics every workload shares. busyS is the time
// the callers spent: the sum of op times for the single solve caller, the
// loop's wall time for the concurrent serve clients.
func (r *results) setEndToEnd(ops []opSample, busyS float64, used usage) {
	all := opMS(ops)
	var solves []float64
	var edges float64
	for _, o := range ops {
		if o.solver {
			solves = append(solves, o.ms)
			edges += float64(o.edges)
		}
	}
	n := float64(len(ops))
	r.set("op_ms_p50", median(all), len(all))
	r.report("op_ms_p90", "ms", tail(all), len(all))
	r.set("solve_ms_p50", median(solves), len(solves))
	r.set("solve_ms_p90", tail(solves), len(solves))
	r.set("solve_mteps", ratio(edges, sum(solves)*1e3), len(solves))
	r.set("ops_per_s", ratio(n, busyS), len(ops))
	r.set("allocs_per_op", ratio(float64(used.mallocs), n), len(ops))
	r.report("cpu_ms_per_op", "ms", ratio(float64(used.cpu)/1e6, n), len(ops))
}

func (u usage) since(start usage) usage {
	return usage{mallocs: u.mallocs - start.mallocs, cpu: u.cpu - start.cpu}
}

// oracle is seq.Dijkstra's answer for one source.
type oracle struct {
	dist      []float64
	reachable int     // vertices with a finite distance
	checksum  float64 // sum of finite distances, the /sssp response's summary
	edges     int64   // edges out of reachable vertices
}

func newOracle(res seq.Result) *oracle {
	o := &oracle{dist: res.Dist, edges: res.Relaxations}
	for _, d := range res.Dist {
		if !math.IsInf(d, 1) {
			o.reachable++
			o.checksum += d
		}
	}
	return o
}

// relTol is how far an answer may sit from the oracle's, relatively: ACIC
// and Dijkstra may add the same path's weights in another order.
const relTol = 1e-9

func closeTo(got, want float64) bool {
	if math.IsInf(want, 1) || math.IsInf(got, 1) {
		return math.IsInf(want, 1) && math.IsInf(got, 1)
	}
	return math.Abs(got-want) <= relTol*math.Max(1, math.Abs(want))
}

func sameDist(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if !closeTo(got[i], want[i]) {
			return false
		}
	}
	return true
}

// reportSelfTimes prints where a traced pass's op time went, span by span.
func (r *results) reportSelfTimes(l *spanLog, ops int) {
	for _, st := range l.selfTimes() {
		r.report(fmt.Sprintf("self.%s_ms", st.Name), "ms", ratio(st.SelfMS, float64(ops)), st.Count)
	}
}
