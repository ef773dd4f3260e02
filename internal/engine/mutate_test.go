package engine

// Mutation-path tests: basic Mutate semantics, the cache-coherence contract
// under concurrent queries and mutations (run these under -race), and the
// regression for the single-flight leader that loses a race with Mutate.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"acic/internal/dynamic"
	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/pq"
	"acic/internal/seq"
	"acic/internal/xrand"
)

func mustDynamicEngine(t *testing.T, g *graph.Graph, cfg Config) (*Engine, *dynamic.Graph) {
	t.Helper()
	dg := dynamic.FromCSR(g)
	e, err := NewDynamic(dg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, dg
}

// TestFromCSRAllocatesNothingPerVertex: a dynamic engine keeps the graph
// it is given and one transpose of it, so building one costs a fixed
// number of allocations whatever |V| is. Adjacency lists beside the graphs
// cost at least one per vertex (about 140 K at 2^14 × 8).
func TestFromCSRAllocatesNothingPerVertex(t *testing.T) {
	var allocs []float64
	for _, scale := range []int{10, 14} {
		n := 1 << scale
		g := gen.Uniform(n, 8*n, gen.Config{Seed: 1})
		a := testing.AllocsPerRun(10, func() {
			if _, err := NewDynamic(dynamic.FromCSR(g), Config{}); err != nil {
				t.Fatal(err)
			}
		})
		if a >= 100 {
			t.Fatalf("FromCSR + NewDynamic at 2^%d: %.0f allocations, want < 100", scale, a)
		}
		allocs = append(allocs, a)
	}
	// One allocation per vertex would add 15,360 between the two sizes. The
	// slack is for the few that other goroutines make during the count
	// (under -race, 2^14 has read one more than 2^10).
	if allocs[1] > allocs[0]+8 {
		t.Fatalf("FromCSR + NewDynamic allocations grow with |V|: %.0f at 2^10, %.0f at 2^14", allocs[0], allocs[1])
	}
}

// TestMutateRepairsResidentVectors: a cached vector must survive a mutation
// batch as a cache hit at the new epoch, with distances exact for the
// post-mutation graph.
func TestMutateRepairsResidentVectors(t *testing.T) {
	g := testGraph()
	e, _ := mustDynamicEngine(t, g, Config{})
	ctx := context.Background()

	first, err := e.Query(ctx, 3, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Epoch != 0 {
		t.Fatalf("fresh engine at epoch %d", first.Epoch)
	}

	batch := []dynamic.Mutation{
		{Op: dynamic.Insert, From: 3, To: 390, Weight: 0.25},
		{Op: dynamic.Insert, From: 390, To: 391, Weight: 0.25},
	}
	mr, err := e.Mutate(batch)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Epoch != 1 || e.Epoch() != 1 {
		t.Fatalf("epoch after mutate: result %d, engine %d", mr.Epoch, e.Epoch())
	}
	if mr.Inserted != 2 || mr.RepairedVectors != 1 {
		t.Fatalf("unexpected mutate result %+v", mr)
	}
	if mr.Edges != g.NumEdges()+2 || snapshot(e).NumEdges() != g.NumEdges()+2 {
		t.Fatalf("edge count %d / %d, want %d", mr.Edges, snapshot(e).NumEdges(), g.NumEdges()+2)
	}

	second, err := e.Query(ctx, 3, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("repaired vector did not serve as a cache hit")
	}
	if second.Epoch != 1 {
		t.Fatalf("post-mutation query at epoch %d", second.Epoch)
	}
	oracle := seq.Dijkstra(snapshot(e), 3)
	if i := seq.FirstMismatch(second.Dist, oracle.Dist); i >= 0 {
		t.Fatalf("repaired vector wrong at %d: %g want %g", i, second.Dist[i], oracle.Dist[i])
	}
	if second.Dist[390] != 0.25 || second.Dist[391] != 0.5 {
		t.Fatalf("inserted edges not reflected: dist[390]=%g dist[391]=%g", second.Dist[390], second.Dist[391])
	}
	// The pre-mutation response must be untouched: repair works on copies.
	if first.Dist[390] == 0.25 && first.Dist[391] == 0.5 {
		t.Fatal("mutation wrote through the old epoch's response")
	}
}

// TestMissAfterMutationBeyondTheOldWeights: a batch inserting one edge
// lighter than the graph's smallest weight and one heavier than its
// largest gives the next version a narrower bucket and a wider span, and
// the next misses are exact with seq.Dijkstra's settled and relaxation
// counts: no vertex popped before its label was final.
func TestMissAfterMutationBeyondTheOldWeights(t *testing.T) {
	g := testGraph() // weights in [1, 256)
	e, _ := mustDynamicEngine(t, g, Config{})
	ctx := context.Background()
	if _, err := e.Query(ctx, 0, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	old := e.version.Load()
	if _, err := e.Mutate([]dynamic.Mutation{
		{Op: dynamic.Insert, From: 0, To: 17, Weight: 0.25},
		{Op: dynamic.Insert, From: 0, To: 42, Weight: 1024},
	}); err != nil {
		t.Fatal(err)
	}
	v := e.version.Load()
	if v.width != 0.125 || v.span != 1024 {
		t.Fatalf("bucket width %g and span %g after the batch (before: %g and %g), want 0.125 and 1024", v.width, v.span, old.width, old.span)
	}
	invalidateCache(e) // source 0's repaired vector would answer as a hit
	for _, src := range []int{0, 17, 42, 5} {
		res, err := e.Query(ctx, src, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := seq.Dijkstra(v.g, src)
		if !seq.Equal(res.Dist, want.Dist) {
			t.Fatalf("source %d: mismatch at vertex %d", src, seq.FirstMismatch(res.Dist, want.Dist))
		}
		if res.Settled != int64(want.Settled) || res.Relaxations != want.Relaxations {
			t.Errorf("source %d: settled %d, relaxations %d; seq.Dijkstra %d and %d", src, res.Settled, res.Relaxations, want.Settled, want.Relaxations)
		}
	}
}

// TestDeleteOfTheLightestEdgeKeepsTheWidth: a version's weight range only
// widens, so deleting the graph's lightest edge leaves the bucket width
// where it was, narrower than a scan of the new graph would set it. That
// costs speed, never exactness: the next misses match seq.Dijkstra's
// distances and its settled and relaxation counts, because every weight is
// still at least twice the width.
func TestDeleteOfTheLightestEdgeKeepsTheWidth(t *testing.T) {
	g := testGraph()
	lightest := minWeight(g)
	// Every edge of that weight goes, with the edges parallel to it: a
	// delete removes the first of them in row order.
	var batch []dynamic.Mutation
	g.EachEdge(func(from, to int32, w float64) {
		if w != lightest {
			return
		}
		ts, _ := g.Neighbors(int(from))
		for _, v := range ts {
			if v == to {
				batch = append(batch, dynamic.Mutation{Op: dynamic.Delete, From: from, To: to})
			}
		}
	})
	e, _ := mustDynamicEngine(t, g, Config{})
	old := e.version.Load()
	if lightest <= 0 || old.width != lightest/2 {
		t.Fatalf("width %g before the batch, want half the lightest weight %g", old.width, lightest)
	}
	if _, err := e.Mutate(batch); err != nil {
		t.Fatal(err)
	}
	v := e.version.Load()
	if v.width != old.width || v.span != old.span {
		t.Fatalf("bucket width %g and span %g after the delete, want %g and %g kept", v.width, v.span, old.width, old.span)
	}
	snap := v.g
	if w := minWeight(snap); w/2 <= v.width {
		t.Fatalf("the new graph's lightest weight %g would not widen the buckets past %g; the delete tests nothing", w, v.width)
	}
	ctx := context.Background()
	for _, src := range []int{int(batch[0].From), int(batch[0].To), 0, 5} {
		res, err := e.Query(ctx, src, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := seq.Dijkstra(snap, src)
		if !seq.Equal(res.Dist, want.Dist) {
			t.Fatalf("source %d: mismatch at vertex %d", src, seq.FirstMismatch(res.Dist, want.Dist))
		}
		if res.Settled != int64(want.Settled) || res.Relaxations != want.Relaxations {
			t.Errorf("source %d: settled %d, relaxations %d; seq.Dijkstra %d and %d", src, res.Settled, res.Relaxations, want.Settled, want.Relaxations)
		}
	}
}

// minWeight returns g's smallest edge weight.
func minWeight(g *graph.Graph) float64 {
	w := math.Inf(1)
	g.EachEdge(func(_, _ int32, x float64) { w = min(w, x) })
	return w
}

// TestHeldVersionIsImmutable: a reader holding one version runs misses,
// point-to-point searches and full scans of both directions' rows on it
// while 200 batches land concurrently, and sees the same rows, bit for
// bit, and the same answers throughout. Every batch rebuilds the pages it
// edits into new ones; none writes a page a published version reaches.
// Run under -race in CI.
func TestHeldVersionIsImmutable(t *testing.T) {
	const n, batches = 1 << 10, 200
	g := gen.Uniform(n, 8*n, gen.Config{Seed: 42, MaxWeight: 50})
	e, dg := mustDynamicEngine(t, g, Config{})
	r := xrand.New(42)
	bg := dynamic.NewBatchGen(dg, r, 100) // built before the writer starts; it tracks edges itself
	held := e.version.Load()
	rows := freezeRows(held)
	want := seq.Dijkstra(held.g, 0)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := 0; b < batches; b++ {
			if _, err := e.Mutate(bg.Next(1 + r.Intn(4))); err != nil {
				t.Errorf("batch %d: %v", b, err)
				return
			}
		}
	}()
	q := pq.NewBucketQueue(n)
	var ps pathSearch
	ctx := context.Background()
	for round, finished := 0, false; !finished; round++ {
		select {
		case <-done:
			finished = true // one more round after the last batch landed
		default:
		}
		sol, err := dijkstra(ctx, held, 0, q)
		if err != nil {
			t.Fatal(err)
		}
		if !seq.Equal(sol.dist, want.Dist) || sol.settled != int64(want.Settled) {
			t.Fatalf("round %d: a miss on the held version differs from its oracle", round)
		}
		target := (round*97 + 1) % n
		if pr := ps.run(held.g, held.rev, 0, target); pr.Distance != want.Dist[target] && math.Abs(pr.Distance-want.Dist[target]) > 1e-9*want.Dist[target] {
			t.Fatalf("round %d: path 0->%d on the held version = %g, oracle %g", round, target, pr.Distance, want.Dist[target])
		}
		if !bytes.Equal(freezeRows(held), rows) {
			t.Fatalf("round %d: the held version's rows changed under a batch", round)
		}
	}
	if e.Epoch() != batches {
		t.Fatalf("epoch %d after the writer, want %d", e.Epoch(), batches)
	}
}

// freezeRows encodes every row of v, both directions, as bytes.
func freezeRows(v *graphVersion) []byte {
	var b []byte
	for _, p := range []*graph.Graph{v.g, v.rev} {
		for u := 0; u < p.NumVertices(); u++ {
			ts, ws := p.Neighbors(u)
			b = binary.LittleEndian.AppendUint32(b, uint32(len(ts)))
			for i, t := range ts {
				b = binary.LittleEndian.AppendUint32(b, uint32(t))
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ws[i]))
			}
		}
	}
	return b
}

// TestMutateKeepsRecency: re-homing the repaired vectors under the new epoch
// must not reorder them. The touched source is the lowest-numbered one, the
// entry a re-homing in source order would make the oldest.
func TestMutateKeepsRecency(t *testing.T) {
	const capacity = 8
	e, _ := mustDynamicEngine(t, testGraph(), Config{CacheEntries: capacity})
	ctx := context.Background()
	query := func(source int) *QueryResult {
		t.Helper()
		res, err := e.Query(ctx, source, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for s := 0; s < capacity; s++ {
		query(s)
	}
	if !query(0).CacheHit { // now the most recent entry
		t.Fatal("source 0 not resident after filling the cache")
	}
	mr, err := e.Mutate([]dynamic.Mutation{{Op: dynamic.Insert, From: 1, To: 2, Weight: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if mr.RepairedVectors != capacity {
		t.Fatalf("repaired %d vectors, want %d", mr.RepairedVectors, capacity)
	}
	// capacity-1 new sources evict every entry but the most recent one.
	for s := capacity; s < 2*capacity-1; s++ {
		if query(s).CacheHit {
			t.Fatalf("never-seen source %d was a hit", s)
		}
	}
	if res := query(0); !res.CacheHit || res.Epoch != mr.Epoch {
		t.Fatalf("touched source after mutate and %d admissions: hit=%v epoch=%d, want a hit at epoch %d",
			capacity-1, res.CacheHit, res.Epoch, mr.Epoch)
	}
}

// TestMutateRejectsBadBatch: a rejected batch changes nothing — epoch,
// graph, and cache all stay put.
func TestMutateRejectsBadBatch(t *testing.T) {
	g := testGraph()
	e, _ := mustDynamicEngine(t, g, Config{})
	if _, err := e.Query(context.Background(), 7, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	_, err := e.Mutate([]dynamic.Mutation{
		{Op: dynamic.Insert, From: 0, To: 1, Weight: 1},
		{Op: dynamic.Insert, From: 0, To: 99999, Weight: 1}, // out of range
	})
	if !errors.Is(err, ErrBadMutation) {
		t.Fatalf("err = %v, want ErrBadMutation", err)
	}
	if e.Epoch() != 0 {
		t.Fatalf("failed batch advanced epoch to %d", e.Epoch())
	}
	if snapshot(e).NumEdges() != g.NumEdges() {
		t.Fatal("failed batch left edges behind")
	}
	res, err := e.Query(context.Background(), 7, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit || res.Epoch != 0 {
		t.Fatalf("cache lost after failed batch: hit=%v epoch=%d", res.CacheHit, res.Epoch)
	}
}

// TestMutateRejectsEmptyBatch: the Go API itself rejects a no-op batch (the
// guard is not transport-specific) — an empty Mutate must not advance the
// epoch or purge/re-home the cache.
func TestMutateRejectsEmptyBatch(t *testing.T) {
	e, _ := mustDynamicEngine(t, testGraph(), Config{})
	if _, err := e.Query(context.Background(), 7, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]dynamic.Mutation{nil, {}} {
		if _, err := e.Mutate(batch); !errors.Is(err, ErrBadMutation) {
			t.Fatalf("err = %v, want ErrBadMutation", err)
		}
	}
	if e.Epoch() != 0 {
		t.Fatalf("empty batch advanced epoch to %d", e.Epoch())
	}
	res, err := e.Query(context.Background(), 7, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit || res.Epoch != 0 {
		t.Fatalf("empty batch disturbed the cache: hit=%v epoch=%d", res.CacheHit, res.Epoch)
	}
}

// TestMutateCloseRace races Mutate against Close (meaningful under -race):
// every batch either publishes its version before draining begins or is
// rejected with ErrDraining, so the final epoch equals the success count and
// nothing publishes after the drain.
func TestMutateCloseRace(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		e, _ := mustDynamicEngine(t, testGraph(), Config{})
		var succeeded atomic.Uint64
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				_, err := e.Mutate([]dynamic.Mutation{{Op: dynamic.Insert, From: 0, To: 1, Weight: 1}})
				if err == nil {
					succeeded.Add(1)
				} else if !errors.Is(err, ErrDraining) {
					t.Errorf("trial %d: %v", trial, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			if err := e.Close(context.Background()); err != nil {
				t.Errorf("trial %d: close: %v", trial, err)
			}
		}()
		wg.Wait()
		if t.Failed() {
			return
		}
		if e.Epoch() != succeeded.Load() {
			t.Fatalf("trial %d: epoch %d but %d mutations succeeded", trial, e.Epoch(), succeeded.Load())
		}
		if _, err := e.Mutate([]dynamic.Mutation{{Op: dynamic.Insert, From: 0, To: 1, Weight: 1}}); !errors.Is(err, ErrDraining) {
			t.Fatalf("trial %d: post-drain mutate err = %v, want ErrDraining", trial, err)
		}
	}
}

// TestCacheCoherenceUnderMutation is the satellite race test: concurrent
// queries racing a stream of mutation batches must never observe a
// stale-epoch vector — every response's epoch is at least the epoch current
// when the query was admitted, and its distances are exact for the graph at
// the response's epoch. Run under -race in CI.
func TestCacheCoherenceUnderMutation(t *testing.T) {
	g := gen.Uniform(200, 800, gen.Config{Seed: 21, MaxWeight: 50})
	e, _ := mustDynamicEngine(t, g, Config{MaxInFlight: 4, MaxQueue: 64})
	ctx := context.Background()

	// Oracle graphs per epoch, recorded as mutations land. Engine snapshots
	// are immutable, so retaining them is safe.
	var oracleMu sync.Mutex
	oracle := map[uint64]*graph.Graph{0: snapshot(e)}

	const readers = 8
	const queriesPerReader = 40
	const batches = 25

	type obs struct {
		admitted uint64
		res      *QueryResult
	}
	observations := make([][]obs, readers)
	paths := make([][]*PathResult, readers)

	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := xrand.New(uint64(id) + 1)
			for q := 0; q < queriesPerReader; q++ {
				admitted := e.Epoch()
				res, err := e.Query(ctx, r.Intn(200), QueryOptions{})
				if err != nil {
					t.Errorf("reader %d: %v", id, err)
					return
				}
				observations[id] = append(observations[id], obs{admitted, res})
				// A point-to-point search beside every query: the slot's
				// labels and the version's (g, rev) pair under the race.
				pr, err := e.Path(ctx, r.Intn(200), r.Intn(200))
				if err != nil {
					t.Errorf("reader %d: path: %v", id, err)
					return
				}
				paths[id] = append(paths[id], pr)
			}
		}(i)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		r := xrand.New(99)
		dg2 := dynamic.FromCSR(g) // shadow copy only to drive the generator
		bg := dynamic.NewBatchGen(dg2, r, 50)
		for b := 0; b < batches; b++ {
			batch := bg.Next(1 + r.Intn(4))
			if _, err := dg2.Apply(batch); err != nil {
				t.Errorf("writer: shadow apply: %v", err)
				return
			}
			mr, err := e.Mutate(batch)
			if err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			oracleMu.Lock()
			oracle[mr.Epoch] = snapshot(e)
			oracleMu.Unlock()
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Validate after the fact so readers stay fast while racing.
	checked := map[uint64]map[int][]float64{}
	for id := range observations {
		for _, o := range observations[id] {
			if o.res.Epoch < o.admitted {
				t.Fatalf("reader %d: response epoch %d < admission epoch %d", id, o.res.Epoch, o.admitted)
			}
			og, ok := oracle[o.res.Epoch]
			if !ok {
				t.Fatalf("reader %d: response epoch %d never existed", id, o.res.Epoch)
			}
			bysrc, ok := checked[o.res.Epoch]
			if !ok {
				bysrc = map[int][]float64{}
				checked[o.res.Epoch] = bysrc
			}
			want, ok := bysrc[o.res.Source]
			if !ok {
				want = seq.Dijkstra(og, o.res.Source).Dist
				bysrc[o.res.Source] = want
			}
			if i := seq.FirstMismatch(want, o.res.Dist); i >= 0 {
				t.Fatalf("reader %d: epoch %d source %d: dist[%d] = %g, want %g (stale vector)",
					id, o.res.Epoch, o.res.Source, i, o.res.Dist[i], want[i])
			}
		}
		for _, pr := range paths[id] {
			og, ok := oracle[pr.Epoch]
			if !ok {
				t.Fatalf("reader %d: path epoch %d never existed", id, pr.Epoch)
			}
			want := seq.Dijkstra(og, pr.Source).Dist[pr.Target]
			if math.IsInf(want, 1) != !pr.Reachable || (pr.Reachable && math.Abs(pr.Distance-want) > 1e-9*math.Max(1, want)) {
				t.Fatalf("reader %d: epoch %d path %d->%d: distance %g (reachable %v), want %g", id, pr.Epoch, pr.Source, pr.Target, pr.Distance, pr.Reachable, want)
			}
			if pr.Reachable {
				checkPath(t, og, pr)
			}
		}
	}
}

// TestPublishEvictsStaleLeader is the regression for the single-flight race:
// a leader that admits under epoch N, then loses a race with Mutate (which
// bumps to N+1 and purges), must not park its vector in the cache under the
// dead key N. Its own waiters still get the result.
func TestPublishEvictsStaleLeader(t *testing.T) {
	g := testGraph()
	e, _ := mustDynamicEngine(t, g, Config{})
	ctx := context.Background()

	// Become the single-flight leader for (epoch 0, source 5) by hand.
	slot, err := e.admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey{epoch: 0, source: 5}
	ent, leader := e.cache.getOrCreate(key)
	if !leader {
		t.Fatal("setup: not the leader")
	}
	res, err := dijkstra(ctx, e.version.Load(), 5, pq.NewBucketQueue(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}

	// The mutation lands while "our computation" is in flight.
	if _, err := e.Mutate([]dynamic.Mutation{{Op: dynamic.Insert, From: 1, To: 2, Weight: 1}}); err != nil {
		t.Fatal(err)
	}

	e.publish(ent, res)
	e.releaseSlot(slot)

	select {
	case <-ent.ready:
		if ent.err != nil || ent.res.dist == nil {
			t.Fatal("waiters lost the leader's result")
		}
	default:
		t.Fatal("publish did not complete the entry")
	}
	if _, ok := e.cache.get(key); ok {
		t.Fatal("stale-epoch vector cached under the old key after publish")
	}

	// Control: with no racing mutation the published entry stays resident.
	slot, err = e.admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	key2 := cacheKey{epoch: e.Epoch(), source: 6}
	ent2, leader := e.cache.getOrCreate(key2)
	if !leader {
		t.Fatal("setup: not the leader for control key")
	}
	res2, err := dijkstra(ctx, e.version.Load(), 6, pq.NewBucketQueue(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	e.publish(ent2, res2)
	e.releaseSlot(slot)
	if _, ok := e.cache.get(key2); !ok {
		t.Fatal("current-epoch publish was evicted")
	}
}

// TestMutateHTTPRoundTrip drives POST /mutate through the handler: a good
// batch bumps the epoch and reroutes /path answers; bad batches map to 400.
func TestMutateHTTPRoundTrip(t *testing.T) {
	g := graph.MustBuild(4, []graph.Edge{
		{From: 0, To: 1, Weight: 1},
		{From: 1, To: 2, Weight: 1},
		{From: 2, To: 3, Weight: 1},
	})
	e, _ := mustDynamicEngine(t, g, Config{})
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/mutate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	code, body := post(`{"mutations":[{"op":"insert","from":0,"to":3,"weight":0.5}]}`)
	if code != 200 || !strings.Contains(body, `"epoch":1`) || !strings.Contains(body, `"inserted":1`) {
		t.Fatalf("good batch: code %d body %s", code, body)
	}
	pr, err := e.Path(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Reachable || pr.Distance != 0.5 || pr.Epoch != 1 {
		t.Fatalf("path after mutate: %+v", pr)
	}

	if code, _ := post(`{"mutations":[{"op":"delete","from":0,"to":2}]}`); code != 400 {
		t.Fatalf("missing edge delete: code %d, want 400", code)
	}
	if code, _ := post(`{"mutations":[{"op":"warp","from":0,"to":1}]}`); code != 400 {
		t.Fatalf("unknown op: code %d, want 400", code)
	}
	if code, _ := post(`{"mutations":[]}`); code != 400 {
		t.Fatalf("empty batch: code %d, want 400", code)
	}
	if code, _ := post(`{`); code != 400 {
		t.Fatalf("bad json: code %d, want 400", code)
	}
	if e.Epoch() != 1 {
		t.Fatalf("rejected batches moved the epoch to %d", e.Epoch())
	}
}

// TestMutateWhileDraining: mutations are rejected once Close has begun.
func TestMutateWhileDraining(t *testing.T) {
	e, _ := mustDynamicEngine(t, testGraph(), Config{})
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Mutate([]dynamic.Mutation{{Op: dynamic.Insert, From: 0, To: 1, Weight: 1}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
}

// TestMutateCopiesOnlyWhatItChanges is the copy-on-write contract of
// Mutate, over 200 seeded batches (every seventh one invalid, rolled back
// after a delete reordered an adjacency list). Every Dist/Parent slice a
// query handed out, and every /path answer served from a cached vector,
// must stay bit-identical to a copy taken when it was handed out. A vector
// the batch provably leaves exact (no mutated edge has a labeled tail that
// carries the head's tree path or improves its label) must be carried
// over by pointer; one whose contents changed must have been copied, and
// the copied count is exactly the number of re-homed vectors with a new
// pointer. Every carried vector must be exact for its epoch.
func TestMutateCopiesOnlyWhatItChanges(t *testing.T) {
	const n, sources, batches = 300, 24, 200
	g := gen.Uniform(n, 2*n, gen.Config{Seed: 35, MaxWeight: 50})
	e, _ := mustDynamicEngine(t, g, Config{CacheEntries: 2 * sources})
	ctx := context.Background()
	r := xrand.New(35)
	shadow := dynamic.FromCSR(g) // drives the generator, which must see every batch applied
	bg := dynamic.NewBatchGen(shadow, r, 50)

	type held struct {
		what   string
		dist   []float64
		parent []int32
		want   []byte
	}
	freeze := func(dist []float64, parent []int32) []byte {
		b := make([]byte, 0, 12*len(dist))
		for _, d := range dist {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d))
		}
		for _, p := range parent {
			b = binary.LittleEndian.AppendUint32(b, uint32(p))
		}
		return b
	}
	var hold []held
	seen := map[*float64]bool{}
	var copiedTotal, sharedTotal int

	for b := 0; b < batches; b++ {
		epoch := e.Epoch()
		old := make([]solution, sources)
		for s := 0; s < sources; s++ {
			res, err := e.Query(ctx, s, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !seen[&res.Dist[0]] {
				seen[&res.Dist[0]] = true
				hold = append(hold, held{fmt.Sprintf("epoch %d source %d", epoch, s), res.Dist, res.Parent, freeze(res.Dist, res.Parent)})
			}
			ent, ok := e.cache.get(cacheKey{epoch: epoch, source: int32(s)})
			if !ok || ent.res.dist == nil || &ent.res.dist[0] != &res.Dist[0] {
				t.Fatalf("batch %d: source %d not resident after its query", b, s)
			}
			old[s] = ent.res
		}
		src, target := r.Intn(sources), r.Intn(n)
		pr, err := e.Path(ctx, src, target)
		if err != nil || !pr.CacheHit {
			t.Fatalf("batch %d: /path %d->%d: hit=%v err=%v", b, src, target, pr != nil && pr.CacheHit, err)
		}
		if pr.Path != nil {
			hold = append(hold, held{what: fmt.Sprintf("path %d->%d at epoch %d", src, target, epoch), parent: pr.Path, want: freeze(nil, pr.Path)})
		}

		var batch []dynamic.Mutation
		invalid := b%7 == 6
		if invalid {
			ts, _ := e.version.Load().g.Neighbors(0)
			if len(ts) == 0 {
				t.Fatal("vertex 0 has no out-edge to delete")
			}
			batch = []dynamic.Mutation{
				{Op: dynamic.Delete, From: 0, To: ts[0]},
				{Op: dynamic.Insert, From: 1, To: 2, Weight: 3},
				{Op: dynamic.Delete, From: 0, To: n}, // out of range: the batch rolls back
			}
		} else {
			batch = bg.Next(1 + r.Intn(3))
			if _, err := shadow.Apply(batch); err != nil {
				t.Fatal(err)
			}
		}
		mr, err := e.Mutate(batch)
		if invalid {
			if !errors.Is(err, ErrBadMutation) || e.Epoch() != epoch {
				t.Fatalf("batch %d: invalid batch: err=%v epoch %d -> %d", b, err, epoch, e.Epoch())
			}
		} else {
			if err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			copied := 0
			snap := snapshot(e)
			for s := 0; s < sources; s++ {
				ent, ok := e.cache.get(cacheKey{epoch: mr.Epoch, source: int32(s)})
				if !ok {
					t.Fatalf("batch %d: source %d not carried over", b, s)
				}
				cur := ent.res
				shared := &cur.dist[0] == &old[s].dist[0] && &cur.parent[0] == &old[s].parent[0]
				if !shared {
					copied++
				}
				if untouchedBy(batch, old[s].dist, old[s].parent) && !shared {
					t.Fatalf("batch %d %v: source %d is untouched but was copied", b, batch, s)
				}
				changed := !bytes.Equal(freeze(cur.dist, cur.parent), freeze(old[s].dist, old[s].parent))
				if changed && (&cur.dist[0] == &old[s].dist[0] || &cur.parent[0] == &old[s].parent[0]) {
					t.Fatalf("batch %d: source %d changed in a shared vector", b, s)
				}
				if i := seq.FirstMismatch(seq.Dijkstra(snap, s).Dist, cur.dist); i >= 0 {
					t.Fatalf("batch %d %v: source %d carried over stale at vertex %d", b, batch, s, i)
				}
				if err := dynamic.VerifyTree(shadow, s, cur.dist, cur.parent); err != nil {
					t.Fatalf("batch %d: source %d: %v", b, s, err)
				}
				if want := summarize(cur.dist); ent.sum != want {
					t.Fatalf("batch %d: source %d summary %+v, want %+v", b, s, ent.sum, want)
				}
			}
			if mr.RepairedVectors != sources || mr.CopiedVectors != copied {
				t.Fatalf("batch %d: repaired %d copied %d, want %d and %d", b, mr.RepairedVectors, mr.CopiedVectors, sources, copied)
			}
			copiedTotal += copied
			sharedTotal += sources - copied
		}
		for _, h := range hold {
			if !bytes.Equal(freeze(h.dist, h.parent), h.want) {
				t.Fatalf("batch %d: %s changed after it was handed out", b, h.what)
			}
		}
	}
	if copiedTotal == 0 || sharedTotal == 0 {
		t.Fatalf("copied %d and shared %d vectors over the run; the stream must exercise both", copiedTotal, sharedTotal)
	}
	t.Logf("%d vectors copied, %d shared by pointer", copiedTotal, sharedTotal)
	if got := e.MetricsSnapshot().Counter("engine.copied_vectors"); got != int64(copiedTotal) {
		t.Fatalf("engine.copied_vectors = %d, want %d", got, copiedTotal)
	}
}

// untouchedBy is a sufficient condition, derived from the batch rather
// than its Delta, for the batch to leave an exact (dist, parent) exact as
// it stands: every mutated edge either has an unlabeled tail, or neither
// carries its head's tree path nor (with any weight the batch wrote)
// improves its head's label. Edges the batch did not write already
// satisfied dist[to] <= dist[from]+w.
func untouchedBy(batch []dynamic.Mutation, dist []float64, parent []int32) bool {
	for _, m := range batch {
		if math.IsInf(dist[m.From], 1) {
			continue
		}
		if parent[m.To] == m.From {
			return false
		}
		if m.Op != dynamic.Delete && dist[m.From]+m.Weight < dist[m.To] {
			return false
		}
	}
	return true
}
