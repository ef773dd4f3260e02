package engine

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"acic/internal/dynamic"
	"acic/internal/netsim"
)

// checkSummary recomputes /sssp's summary the way handleSSSP used to on
// every request — one pass in vertex order — and requires the pair stored
// with the cached vector to be bit-identical to it.
func checkSummary(t *testing.T, when string, res *QueryResult) {
	t.Helper()
	reachable, checksum := 0, 0.0
	for _, d := range res.Dist {
		if !math.IsInf(d, 1) {
			reachable++
			checksum += d
		}
	}
	if res.Reachable != reachable || res.Checksum != checksum {
		t.Errorf("%s: stored summary (%d, %v), fresh recomputation (%d, %v)",
			when, res.Reachable, res.Checksum, reachable, checksum)
	}
	if reachable == 0 {
		t.Errorf("%s: no reachable vertex, the check is vacuous", when)
	}
}

// TestSummaryIsStoredWithTheVector covers the three ways a vector enters
// the cache: computed by a query (complete), repaired and re-homed by
// Mutate (put), and read by the followers of a single-flight leader.
func TestSummaryIsStoredWithTheVector(t *testing.T) {
	ctx := context.Background()
	e, _ := mustDynamicEngine(t, testGraph(), Config{
		Latency: netsim.DefaultLatency(), MaxInFlight: 4, MaxQueue: 16, QueueTimeout: time.Minute,
	})

	miss, err := e.Query(ctx, 3, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkSummary(t, "miss", miss)
	hit, err := e.Query(ctx, 3, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("repeat query missed the cache")
	}
	checkSummary(t, "hit", hit)

	// A batch that shortens paths out of source 3 and, being two edges
	// hanging off it, leaves most other vectors as they were: the re-homed
	// entries need a new sum where Repair wrote and may keep the old one
	// where it did not.
	others := []int{11, 42, 101, 250, 391}
	for _, src := range others {
		if _, err := e.Query(ctx, src, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	mr, err := e.Mutate([]dynamic.Mutation{
		{Op: dynamic.Insert, From: 3, To: 390, Weight: 0.25},
		{Op: dynamic.Insert, From: 390, To: 391, Weight: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mr.RepairedVectors != 1+len(others) {
		t.Fatalf("%d vectors re-homed, want %d", mr.RepairedVectors, 1+len(others))
	}
	for _, src := range append([]int{3}, others...) {
		repaired, err := e.Query(ctx, src, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !repaired.CacheHit || repaired.Epoch != 1 {
			t.Fatalf("source %d: hit %v at epoch %d, want a hit at epoch 1", src, repaired.CacheHit, repaired.Epoch)
		}
		checkSummary(t, "repaired and re-homed", repaired)
		if src == 3 && repaired.Checksum == hit.Checksum {
			t.Error("the batch left source 3's checksum where it was: the repair case is not exercised")
		}
	}

	// Followers: the network latency keeps the leader in flight while the
	// rest pile onto its entry.
	const k = 8
	results := make([]*QueryResult, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Query(ctx, 7, QueryOptions{})
		}(i)
	}
	wg.Wait()
	followers := 0
	for i, res := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if res.CacheHit {
			followers++
		}
		checkSummary(t, "single-flight", res)
	}
	if followers == 0 {
		t.Error("no query followed the leader: the follower case is not exercised")
	}
}
