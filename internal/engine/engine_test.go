package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"acic/internal/dynamic"
	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/pq"
	"acic/internal/seq"
)

func testGraph() *graph.Graph {
	return gen.Uniform(400, 3200, gen.Config{Seed: 9})
}

func mustEngine(t *testing.T, g *graph.Graph, cfg Config) *Engine {
	t.Helper()
	e, err := NewDynamic(dynamic.FromCSR(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// snapshot returns e's current graph, read from its dynamic graph under
// the mutation lock.
func snapshot(e *Engine) *graph.Graph {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	return e.dg.Snapshot()
}

// invalidateCache empties e's cache the way a mutation batch would, but
// over the same graph: the epoch advances, so the next query on any source
// is a miss.
func invalidateCache(e *Engine) {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	next := *e.version.Load()
	next.epoch++
	e.version.Store(&next)
	e.cache.purgeStale(next.epoch)
	e.gCacheLen.Set(0, int64(e.cache.len()))
}

// missGate holds e's misses in flight: every miss announces its source on
// entered and waits for release to close before it runs.
type missGate struct {
	entered chan int
	release chan struct{}
}

// holdMisses wraps e's solver in a gate. entered is buffered for more
// misses than any test makes, so announcing one never blocks it.
func holdMisses(e *Engine) *missGate {
	gate := &missGate{entered: make(chan int, 64), release: make(chan struct{})}
	inner := e.solve
	e.solve = func(ctx context.Context, v *graphVersion, source int, q *pq.BucketQueue) (solution, error) {
		gate.entered <- source
		<-gate.release
		return inner(ctx, v, source, q)
	}
	return gate
}

// waitingCtx is a live context that reports on waiting, once, when a query
// first selects on its Done channel: from then on the query is parked on
// an in-flight entry (or in the admission queue), not racing towards one.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan<- struct{}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { c.waiting <- struct{}{} })
	return c.Context.Done()
}

// TestQueryMatchesOracle: the engine's answer for a fresh source must match
// both the sequential oracle and Bellman-Ford, which shares no code with
// the served kernel.
func TestQueryMatchesOracle(t *testing.T) {
	g := testGraph()
	e := mustEngine(t, g, Config{})
	res, err := e.Query(context.Background(), 3, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("first query reported a cache hit")
	}
	oracle := seq.Dijkstra(g, 3)
	if !seq.Equal(res.Dist, oracle.Dist) {
		t.Fatalf("engine vs Dijkstra mismatch at vertex %d", seq.FirstMismatch(res.Dist, oracle.Dist))
	}
	bf := seq.BellmanFord(g, 3)
	if !seq.Equal(res.Dist, bf.Dist) {
		t.Fatalf("engine vs Bellman-Ford mismatch at vertex %d", seq.FirstMismatch(res.Dist, bf.Dist))
	}
}

// TestConcurrentQueriesDistinctSources exercises the full admission path
// under -race: more concurrent queries than slots, every answer
// oracle-checked. A generous queue + timeout means none should be shed.
func TestConcurrentQueriesDistinctSources(t *testing.T) {
	g := testGraph()
	e := mustEngine(t, g, Config{MaxInFlight: 2, MaxQueue: 16, QueueTimeout: time.Minute})
	sources := []int{0, 7, 42, 101, 250, 399}
	oracle := make([][]float64, len(sources))
	for i, s := range sources {
		oracle[i] = seq.Dijkstra(g, s).Dist
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(sources))
	for i, s := range sources {
		wg.Add(1)
		go func(i, s int) {
			defer wg.Done()
			res, err := e.Query(context.Background(), s, QueryOptions{})
			if err != nil {
				errs <- err
				return
			}
			if !seq.Equal(res.Dist, oracle[i]) {
				errs <- fmt.Errorf("distance mismatch for source %d", s)
			}
		}(i, s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCacheHitAndSingleFlight: concurrent identical queries must compute
// once; a later repeat must hit the cache.
func TestCacheHitAndSingleFlight(t *testing.T) {
	g := testGraph()
	e := mustEngine(t, g, Config{MaxInFlight: 4, MaxQueue: 16, QueueTimeout: time.Minute})
	// The first computation is held until every other query waits on it.
	gate := holdMisses(e)
	const k = 8
	waiting := make(chan struct{}, k)
	var wg sync.WaitGroup
	results := make([]*QueryResult, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := &waitingCtx{Context: context.Background(), waiting: waiting}
			results[i], errs[i] = e.Query(ctx, 5, QueryOptions{})
		}(i)
	}
	<-gate.entered
	for i := 0; i < k-1; i++ {
		<-waiting
	}
	close(gate.release)
	wg.Wait()
	misses := 0
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !results[i].CacheHit {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d computations for %d identical concurrent queries, want exactly 1", misses, k)
	}
	snap := e.MetricsSnapshot()
	if got := snap.Counter("engine.cache_misses"); got != 1 {
		t.Errorf("engine.cache_misses = %d, want 1", got)
	}
	// Repeat after completion: a plain cache hit.
	res, err := e.Query(context.Background(), 5, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("repeat query missed the cache")
	}
}

// TestSaturationSheds pins the load-shedding contract deterministically by
// occupying every slot and filling the queue through the admission API,
// then observing a query shed with ErrSaturated.
func TestSaturationSheds(t *testing.T) {
	g := testGraph()
	e := mustEngine(t, g, Config{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: 50 * time.Millisecond})
	slot, err := e.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One waiter fills the queue...
	waiterErr := make(chan error, 1)
	go func() {
		_, err := e.Query(context.Background(), 1, QueryOptions{})
		waiterErr <- err
	}()
	for e.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// ...so the next query must be shed immediately.
	_, err = e.Query(context.Background(), 2, QueryOptions{})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("query into full queue: err = %v, want ErrSaturated", err)
	}
	// The queued waiter itself times out and sheds: the queue is bounded
	// in time as well as length.
	if err := <-waiterErr; !errors.Is(err, ErrSaturated) {
		t.Fatalf("queued waiter: err = %v, want ErrSaturated after QueueTimeout", err)
	}
	e.releaseSlot(slot)
	// Capacity restored: queries flow again.
	if _, err := e.Query(context.Background(), 1, QueryOptions{}); err != nil {
		t.Fatalf("query after release: %v", err)
	}
	if shed := e.MetricsSnapshot().Counter("engine.shed"); shed != 2 {
		t.Errorf("engine.shed = %d, want 2", shed)
	}
}

// TestDrain: Close rejects new queries, waits for in-flight ones, and
// flips health to draining.
func TestDrain(t *testing.T) {
	g := testGraph()
	e := mustEngine(t, g, Config{})
	if _, err := e.Query(context.Background(), 0, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(context.Background(), 1, QueryOptions{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("query after Close: err = %v, want ErrDraining", err)
	}
	// An uncached source forces /path through admission, which is closed.
	if _, err := e.Path(context.Background(), 2, 1); !errors.Is(err, ErrDraining) {
		t.Fatalf("path after Close: err = %v, want ErrDraining", err)
	}
	if h := e.Health(); h.Status != "draining" {
		t.Errorf("health status = %q, want draining", h.Status)
	}
}

// TestEpochInvalidation: bumping the epoch recomputes previously cached
// sources.
func TestEpochInvalidation(t *testing.T) {
	g := testGraph()
	e := mustEngine(t, g, Config{})
	if _, err := e.Query(context.Background(), 4, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(context.Background(), 4, QueryOptions{})
	if err != nil || !res.CacheHit {
		t.Fatalf("pre-invalidate repeat: hit=%v err=%v", res != nil && res.CacheHit, err)
	}
	invalidateCache(e)
	res, err = e.Query(context.Background(), 4, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("query after invalidateCache still hit the cache")
	}
	if res.Epoch != 1 {
		t.Errorf("epoch = %d, want 1", res.Epoch)
	}
}

// TestBadSource: untrusted parameters fail with ErrBadVertex, never panic.
func TestBadSource(t *testing.T) {
	g := testGraph()
	e := mustEngine(t, g, Config{})
	for _, src := range []int{-1, g.NumVertices(), 1 << 30} {
		if _, err := e.Query(context.Background(), src, QueryOptions{}); !errors.Is(err, ErrBadVertex) {
			t.Errorf("Query(%d): err = %v, want ErrBadVertex", src, err)
		}
	}
	if _, err := e.Path(context.Background(), 0, -3); !errors.Is(err, ErrBadVertex) {
		t.Errorf("Path target -3: err = %v, want ErrBadVertex", err)
	}
}

// TestScratchPoolRecycles: sequential queries reuse the one slot's heap and
// stay correct after recycling (distinct sources defeat the cache).
func TestScratchPoolRecycles(t *testing.T) {
	g := testGraph()
	e := mustEngine(t, g, Config{MaxInFlight: 1})
	for _, src := range []int{1, 2, 3, 4, 5} {
		res, err := e.Query(context.Background(), src, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		oracle := seq.Dijkstra(g, src)
		if !seq.Equal(res.Dist, oracle.Dist) {
			t.Fatalf("source %d: mismatch at %d after scratch recycling", src, seq.FirstMismatch(res.Dist, oracle.Dist))
		}
	}
}

// TestPerQueryMetricsSnapshot: on every graph shape, a computing query's
// snapshot, its result and the engine's /metrics counters all carry
// exactly seq.Dijkstra's settled and relaxation counts (both are
// work-minimal, so any other count is wasted or missing work), the
// distances match Bellman-Ford as well, and a cache hit returns no
// snapshot.
func TestPerQueryMetricsSnapshot(t *testing.T) {
	for _, kind := range []string{"random", "rmat", "grid"} {
		g, err := gen.ByKind(kind, 9, 8, gen.Config{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		e := mustEngine(t, g, Config{})
		const src = 6
		res, err := e.Query(context.Background(), src, QueryOptions{CollectMetrics: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics == nil {
			t.Fatalf("%s: no metrics snapshot on computing query", kind)
		}
		want := seq.Dijkstra(g, src)
		engine := e.MetricsSnapshot()
		for _, c := range []struct {
			name      string
			got, want int64
		}{
			{"snapshot engine.solve_settled", res.Metrics.Counter("engine.solve_settled"), int64(want.Settled)},
			{"snapshot engine.solve_relaxations", res.Metrics.Counter("engine.solve_relaxations"), want.Relaxations},
			{"Settled", res.Settled, int64(want.Settled)},
			{"Relaxations", res.Relaxations, want.Relaxations},
			{"/metrics engine.solve_settled", engine.Counter("engine.solve_settled"), int64(want.Settled)},
			{"/metrics engine.solve_relaxations", engine.Counter("engine.solve_relaxations"), want.Relaxations},
		} {
			if c.got != c.want {
				t.Errorf("%s: %s = %d, seq.Dijkstra %d", kind, c.name, c.got, c.want)
			}
		}
		bf := seq.BellmanFord(g, src)
		if !seq.Equal(res.Dist, bf.Dist) || res.Reachable != bf.Settled {
			t.Errorf("%s: engine vs Bellman-Ford: mismatch at vertex %d, reachable %d vs %d",
				kind, seq.FirstMismatch(res.Dist, bf.Dist), res.Reachable, bf.Settled)
		}
		res, err = e.Query(context.Background(), src, QueryOptions{CollectMetrics: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit || res.Metrics != nil {
			t.Errorf("%s: cache hit: hit=%v metrics=%v, want hit with nil metrics", kind, res.CacheHit, res.Metrics)
		}
	}
}

// TestCancelledMissFreesSlotAndFollowerRecomputes: a miss whose context is
// cancelled while it computes returns context.Canceled, frees its slot,
// caches nothing and counts as cancelled rather than as an error; a
// follower of that miss whose own context is live gets the oracle's
// answer by computing it itself.
func TestCancelledMissFreesSlotAndFollowerRecomputes(t *testing.T) {
	g := testGraph()
	oracle := seq.Dijkstra(g, 5).Dist
	lead := func(e *Engine, ctx context.Context) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := e.Query(ctx, 5, QueryOptions{})
			done <- err
		}()
		return done
	}
	counters := func(e *Engine) (cancelled, errs, misses int64) {
		s := e.MetricsSnapshot()
		return s.Counter("engine.cancelled"), s.Counter("engine.errors"), s.Counter("engine.cache_misses")
	}

	// The leader alone, on the only slot.
	e := mustEngine(t, g, Config{MaxInFlight: 1})
	gate := holdMisses(e)
	ctx, cancel := context.WithCancel(context.Background())
	done := lead(e, ctx)
	<-gate.entered
	cancel()
	close(gate.release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}
	if n := e.InFlight(); n != 0 {
		t.Errorf("InFlight = %d after the cancelled miss, want 0", n)
	}
	if n := e.cache.len(); n != 0 {
		t.Errorf("%d cache entries after the cancelled miss, want 0", n)
	}
	if c, errs, _ := counters(e); c != 1 || errs != 0 {
		t.Errorf("engine.cancelled = %d, engine.errors = %d, want 1 and 0", c, errs)
	}
	res, err := e.Query(context.Background(), 5, QueryOptions{})
	if err != nil || !seq.Equal(res.Dist, oracle) {
		t.Fatalf("query on the freed slot: err %v", err)
	}

	// A follower parked on the leader's entry when the leader is cancelled.
	e = mustEngine(t, g, Config{MaxInFlight: 2})
	gate = holdMisses(e)
	ctx, cancel = context.WithCancel(context.Background())
	done = lead(e, ctx)
	<-gate.entered
	waiting := make(chan struct{}, 1)
	var follower *QueryResult
	followerErr := make(chan error, 1)
	go func() {
		var err error
		follower, err = e.Query(&waitingCtx{Context: context.Background(), waiting: waiting}, 5, QueryOptions{})
		followerErr <- err
	}()
	<-waiting
	cancel()
	close(gate.release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}
	if err := <-followerErr; err != nil {
		t.Fatalf("follower with a live context returned %v, want the leader's source computed", err)
	}
	if follower.CacheHit || !seq.Equal(follower.Dist, oracle) {
		t.Errorf("follower: cache hit %v, mismatch at vertex %d; want its own computation matching the oracle",
			follower.CacheHit, seq.FirstMismatch(follower.Dist, oracle))
	}
	if n := e.InFlight(); n != 0 {
		t.Errorf("InFlight = %d after both returned, want 0", n)
	}
	if c, errs, misses := counters(e); c != 1 || errs != 0 || misses != 2 {
		t.Errorf("engine.cancelled = %d, engine.errors = %d, engine.cache_misses = %d, want 1, 0 and 2", c, errs, misses)
	}
}

// TestLRUEviction: the cache holds at most CacheEntries vectors, evicting
// the least recently used.
func TestLRUEviction(t *testing.T) {
	g := testGraph()
	e := mustEngine(t, g, Config{CacheEntries: 2})
	for _, src := range []int{1, 2, 3} {
		if _, err := e.Query(context.Background(), src, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.cache.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	// Source 1 was evicted (oldest); source 3 is resident.
	res, err := e.Query(context.Background(), 3, QueryOptions{})
	if err != nil || !res.CacheHit {
		t.Errorf("source 3: hit=%v err=%v, want resident", res != nil && res.CacheHit, err)
	}
	res, err = e.Query(context.Background(), 1, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("source 1 should have been evicted")
	}
}

// TestUnreachableDistances: +Inf distances survive the trip through the
// engine (regression guard for the PathTo fix's sibling path).
func TestUnreachableDistances(t *testing.T) {
	// 0 -> 1, vertex 2 isolated.
	g, err := graph.Build(3, []graph.Edge{{From: 0, To: 1, Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, g, Config{})
	res, err := e.Query(context.Background(), 0, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Dist[2], 1) {
		t.Errorf("Dist[2] = %v, want +Inf", res.Dist[2])
	}
}
