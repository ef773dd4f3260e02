// Package engine is the resident SSSP query engine behind cmd/acic-serve:
// a long-lived service answering many single-source and point-to-point
// queries over one shared graph.
//
// One Engine serves one graph version at a time: an epoch, the graph and
// its reverse as dynamic.Pages (page tables over immutable 256-row pages),
// published together behind one atomic pointer and shared read-only by
// every concurrent query (no page is written after it is built). The
// engine owns a dynamic.Graph, and every mutation batch (mutate.go)
// rebuilds only the pages it edits, sharing the rest with the previous
// version. Around the version it maintains:
//
//   - Misses filled on one core (solve.go): Dial's algorithm, Dijkstra on
//     a monotone bucket queue whose width each graph version takes from
//     its weight range, writing straight into the two vectors the cache
//     keeps and reading the query's context every 1,024 settled vertices,
//     so a client that goes away frees its slot within a fraction of a
//     millisecond. The simulated ACIC cluster is not the served solver:
//     one query on a few cores cannot buy back the redundant updates its
//     asynchrony spends on parallelism (DESIGN.md §8).
//
//   - Per-admission-slot scratch, checked out for the duration of a query:
//     the miss's bucket queue over |V|, and the point-to-point search's
//     labels and heaps. Holding a slot id is holding its scratch, so the
//     pool needs no lock of its own.
//
//   - An LRU cache of completed distance vectors keyed by (graph epoch,
//     source), with single-flight deduplication: concurrent identical
//     queries ride one computation, and followers do not consume admission
//     slots while they wait. A follower whose leader was cancelled
//     computes the vector itself if its own context is still live.
//
//   - Admission control: a bounded in-flight-slot semaphore, each slot one
//     query on one core, plus a bounded wait queue. A query that finds the
//     queue full — or waits longer than the queue timeout — is shed with
//     ErrSaturated, which the HTTP layer maps to 429 + Retry-After.
//     Fan-in beyond capacity degrades by rejecting, never by queueing
//     unboundedly.
//
//   - Point-to-point queries by bidirectional Dijkstra (p2p.go): a forward
//     search on the graph and a backward one on its reverse, expanding the
//     smaller frontier, stopping once the two heap minima sum to the best
//     meeting value μ and pruning every relaxation that cannot beat μ (the
//     bound tightening of Yu et al., arXiv:2506.19349). A search stamps its
//     labels with a generation instead of clearing them, so it allocates
//     nothing of size |V|. A cached full vector for the source answers the
//     query without any search at all.
//
// Draining: Close stops admitting, waits for in-flight queries, and leaves
// cached results readable — the HTTP layer keeps /healthz honest while the
// process shuts down.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"acic/internal/dynamic"
	"acic/internal/metrics"
	"acic/internal/netsim"
	"acic/internal/pq"
)

// Sentinel errors; the HTTP layer maps each to a status code.
var (
	// ErrSaturated is returned when admission control sheds a query: every
	// in-flight slot is busy and the wait queue is full (or the queue
	// timeout elapsed). Maps to 429.
	ErrSaturated = errors.New("engine: saturated, query shed")
	// ErrDraining is returned once Close has begun. Maps to 503.
	ErrDraining = errors.New("engine: draining")
	// ErrBadVertex wraps out-of-range source/target parameters. Maps to 400.
	ErrBadVertex = errors.New("engine: vertex out of range")
)

// Config sizes one Engine. The zero value of every field selects a default.
type Config struct {
	// Topo was the simulated machine each miss ran on.
	//
	// Deprecated: ignored. Misses run a sequential Dijkstra on one core.
	Topo netsim.Topology
	// MaxInFlight bounds concurrently executing queries (and sizes the
	// per-slot scratch and the metrics shards). Default 4.
	MaxInFlight int
	// MaxQueue bounds queries waiting for a slot; a query arriving to a
	// full queue is shed immediately. Default 2 × MaxInFlight.
	MaxQueue int
	// QueueTimeout bounds how long a queued query waits for a slot before
	// being shed. Default 1s.
	QueueTimeout time.Duration
	// CacheEntries bounds the LRU distance-vector cache. Default 64.
	CacheEntries int
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 64
	}
	return c
}

// graphVersion is one immutable version of the served graph: its epoch,
// the graph, its reverse and the bucket width and span of a miss on it.
// Queries load the current version exactly once, so the epoch they admit
// under and the pages they read always belong together even while a
// mutation swaps the version underneath them. rev is g with every edge
// flipped, for the backward half of the point-to-point search.
type graphVersion struct {
	epoch       uint64
	g           *dynamic.Pages
	rev         *dynamic.Pages
	width, span float64
}

// newVersion makes the version of dv at epoch, its bucket rule (solve.go)
// taken from dv's weight range in O(1).
func newVersion(epoch uint64, dv dynamic.Version) *graphVersion {
	v := &graphVersion{epoch: epoch, g: dv.Out, rev: dv.In}
	v.width, v.span = bucketRule(dv.MinWeight, dv.MaxWeight)
	return v
}

// slotScratch is what one admission slot reuses from query to query: the
// bucket queue a miss searches with, allocated by the slot's first miss
// (|V| never changes over an engine's life), and the labels and heaps of
// the point-to-point search.
type slotScratch struct {
	solve *pq.BucketQueue
	path  pathSearch
}

// Engine is a resident SSSP query engine over one shared graph version.
// Construct with NewDynamic; all methods are safe for concurrent use.
type Engine struct {
	version atomic.Pointer[graphVersion]
	cfg     Config

	// solve fills a miss; dijkstra unless a test wraps it to hold a miss
	// in flight.
	solve solveFunc

	// dg is the mutable graph behind the served versions. mutMu serializes
	// Mutate, the only operation that swaps the version pointer.
	dg    *dynamic.Graph
	mutMu sync.Mutex

	// slots carries the admission-slot ids [0, MaxInFlight); holding an id
	// is holding the right to run one query. scratch[i] is slot i's
	// reusable state, so the pool needs no locking of its own.
	slots   chan int
	scratch []slotScratch
	queued  atomic.Int64

	cache *lruCache

	draining  atomic.Bool
	drainOnce sync.Once
	drained   chan struct{} // closed when draining begins
	inflight  sync.WaitGroup

	// Engine-level telemetry, sharded by admission slot (shard 0 doubles
	// as the slot-less shard for cache hits and sheds).
	met           *metrics.Registry
	mQueries      *metrics.Counter
	mHits         *metrics.Counter
	mMisses       *metrics.Counter
	mFollows      *metrics.Counter
	mShed         *metrics.Counter
	mErrors       *metrics.Counter
	mCancelled    *metrics.Counter
	mSolveSettled *metrics.Counter
	mSolveRelax   *metrics.Counter
	mP2P          *metrics.Counter
	mP2PPruned    *metrics.Counter
	mP2PSettled   *metrics.Counter
	mMutations    *metrics.Counter
	mRepairedVec  *metrics.Counter
	mCopiedVec    *metrics.Counter
	gInFlight     *metrics.Gauge
	gQueued       *metrics.Gauge
	gCacheLen     *metrics.Gauge

	// Query latency inside the engine by outcome, from the call to its
	// return: answered from the cache (sssp and path alike, followers
	// included), a miss filled, a path searched, a miss cancelled.
	hHitMicros       *metrics.Histogram
	hMissMicros      *metrics.Histogram
	hPathMicros      *metrics.Histogram
	hCancelledMicros *metrics.Histogram

	// svcNanos is an EWMA of recent miss solve time in nanoseconds
	// (α = 1/8), fed by every completed miss. The HTTP layer
	// derives the 429 Retry-After hint from it, so the backoff a shed
	// client is told tracks how long queries actually take on this graph
	// instead of a hardcoded guess. Zero until the first query completes.
	svcNanos atomic.Int64
}

// observeService folds one query's service time into the EWMA.
func (e *Engine) observeService(d time.Duration) {
	for {
		old := e.svcNanos.Load()
		next := d.Nanoseconds()
		if old != 0 {
			next = old + (next-old)/8
		}
		if e.svcNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// NewDynamic builds an engine serving queries over dg's current CSR, whose
// graph can be mutated with Mutate. The engine takes ownership of dg:
// callers must not Apply to it directly afterwards. The engine epoch
// starts at 0 regardless of dg's own epoch (the two counters advance in
// lockstep from here but are independent).
func NewDynamic(dg *dynamic.Graph, cfg Config) (*Engine, error) {
	if dg == nil {
		return nil, errors.New("engine: nil dynamic graph")
	}
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:     cfg,
		solve:   dijkstra,
		dg:      dg,
		slots:   make(chan int, cfg.MaxInFlight),
		scratch: make([]slotScratch, cfg.MaxInFlight),
		cache:   newLRUCache(cfg.CacheEntries),
		drained: make(chan struct{}),
		met:     metrics.New(cfg.MaxInFlight),
	}
	e.version.Store(newVersion(0, dg.Current()))
	for i := 0; i < cfg.MaxInFlight; i++ {
		e.slots <- i
	}
	e.mQueries = e.met.Counter("engine.queries")
	e.mHits = e.met.Counter("engine.cache_hits")
	e.mMisses = e.met.Counter("engine.cache_misses")
	e.mFollows = e.met.Counter("engine.singleflight_follows")
	e.mShed = e.met.Counter("engine.shed")
	e.mErrors = e.met.Counter("engine.errors")
	e.mCancelled = e.met.Counter("engine.cancelled")
	e.mSolveSettled = e.met.Counter("engine.solve_settled")
	e.mSolveRelax = e.met.Counter("engine.solve_relaxations")
	e.mP2P = e.met.Counter("engine.p2p_queries")
	e.mP2PPruned = e.met.Counter("engine.p2p_pruned_relaxations")
	e.mP2PSettled = e.met.Counter("engine.p2p_settled")
	e.mMutations = e.met.Counter("engine.mutations")
	e.mRepairedVec = e.met.Counter("engine.repaired_vectors")
	e.mCopiedVec = e.met.Counter("engine.copied_vectors")
	e.gInFlight = e.met.Gauge("engine.inflight")
	e.gQueued = e.met.Gauge("engine.queued")
	e.gCacheLen = e.met.Gauge("engine.cache_entries")
	e.hHitMicros = e.met.Histogram("engine.hit_us")
	e.hMissMicros = e.met.Histogram("engine.miss_us")
	e.hPathMicros = e.met.Histogram("engine.path_us")
	e.hCancelledMicros = e.met.Histogram("engine.cancelled_us")
	return e, nil
}

// Epoch returns the current graph epoch. Epochs key the cache; every
// Mutate batch advances it by one, making stale vectors unreachable.
func (e *Engine) Epoch() uint64 { return e.version.Load().epoch }

// MetricsSnapshot captures the engine-level instrument registry.
func (e *Engine) MetricsSnapshot() metrics.Snapshot { return e.met.Snapshot() }

// QueryOptions tune one query.
type QueryOptions struct {
	// CollectMetrics returns a per-query snapshot of the solve's work
	// counters, engine.solve_settled and engine.solve_relaxations.
	// Snapshots come only from queries that actually compute — a cache
	// hit returns nil.
	CollectMetrics bool
}

// QueryResult is one answered single-source query. Dist and Parent alias
// the shared cache entry: callers must treat them as read-only.
type QueryResult struct {
	Source   int
	Epoch    uint64
	CacheHit bool
	Dist     []float64
	Parent   []int32
	// Reachable and Checksum summarize Dist, stored with the cached vector:
	// the count and sum of its finite entries, the sum capped at
	// math.MaxFloat64.
	Reachable int
	Checksum  float64
	// Elapsed, Settled and Relaxations describe the solve that produced
	// the vector, on a hit too: its wall time, the vertices it settled and
	// the out-edges of those vertices it scanned. A vector a mutation
	// repaired keeps the figures of its original solve.
	Elapsed     time.Duration
	Settled     int64
	Relaxations int64
	// Metrics is the per-query registry snapshot when requested and the
	// query computed (nil on cache hits).
	Metrics *metrics.Snapshot
}

// Query answers a single-source query, serving from the cache when the
// (epoch, source) vector is resident and computing (under admission
// control, with single-flight dedup) otherwise. A query whose ctx ends
// while it computes stops, frees its slot and returns ctx's error.
func (e *Engine) Query(ctx context.Context, source int, opts QueryOptions) (*QueryResult, error) {
	start := time.Now()
	e.mQueries.Inc(0)
	v := e.version.Load() // one load: epoch and graph stay a consistent pair
	if source < 0 || source >= v.g.NumVertices() {
		e.mErrors.Inc(0)
		return nil, fmt.Errorf("%w: source %d not in [0,%d)", ErrBadVertex, source, v.g.NumVertices())
	}
	key := cacheKey{epoch: v.epoch, source: int32(source)}
	for {
		// Fast path: a resident or in-flight entry answers without admission.
		if ent, ok := e.cache.get(key); ok {
			if res, err := e.follow(ctx, ent, start); !errors.Is(err, errEntryFailed) {
				return res, err
			}
		}

		slot, err := e.admit(ctx)
		if err != nil {
			return nil, err
		}
		ent, leader := e.cache.getOrCreate(key)
		e.gCacheLen.Set(0, int64(e.cache.len()))
		if leader {
			return e.lead(ctx, v, ent, slot, opts, start)
		}
		// Someone beat us to it between the fast path and here; don't sit
		// on a slot while following their computation.
		e.releaseSlot(slot)
		e.mFollows.Inc(0)
		if res, err := e.follow(ctx, ent, start); !errors.Is(err, errEntryFailed) {
			return res, err
		}
	}
}

// follow waits for ent's computation and answers from it as a hit. When
// that computation failed — its leader was cancelled, say — it drops ent
// and returns errEntryFailed if ctx is still live, so that the caller
// computes the vector itself instead of inheriting the leader's error.
func (e *Engine) follow(ctx context.Context, ent *cacheEntry, start time.Time) (*QueryResult, error) {
	select {
	case <-ent.ready:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if ent.err != nil {
		e.cache.remove(ent)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, errEntryFailed
	}
	e.mHits.Inc(0)
	e.hHitMicros.Observe(0, time.Since(start).Microseconds())
	return e.result(ent, true, nil), nil
}

// lead fills ent, the miss this query leads, on slot against v, the graph
// version it was admitted under, then publishes or fails it for its
// followers and frees the slot.
func (e *Engine) lead(ctx context.Context, v *graphVersion, ent *cacheEntry, slot int, opts QueryOptions, start time.Time) (*QueryResult, error) {
	defer e.releaseSlot(slot)
	e.mMisses.Inc(slot)
	sc := &e.scratch[slot]
	if sc.solve == nil {
		sc.solve = pq.NewBucketQueue(v.g.NumVertices())
	}
	res, err := e.solve(ctx, v, int(ent.key.source), sc.solve)
	if err != nil {
		e.cache.fail(ent, err)
		if ctx.Err() != nil {
			e.mCancelled.Inc(slot)
			e.hCancelledMicros.Observe(slot, time.Since(start).Microseconds())
		} else {
			e.mErrors.Inc(slot)
		}
		return nil, err
	}
	e.mSolveSettled.Add(slot, res.settled)
	e.mSolveRelax.Add(slot, res.relaxations)
	e.observeService(res.elapsed)
	e.publish(ent, res)
	var snap *metrics.Snapshot
	if opts.CollectMetrics {
		reg := metrics.New(1)
		reg.Counter("engine.solve_settled").Add(0, res.settled)
		reg.Counter("engine.solve_relaxations").Add(0, res.relaxations)
		s := reg.Snapshot()
		snap = &s
	}
	e.hMissMicros.Observe(slot, time.Since(start).Microseconds())
	return e.result(ent, false, snap), nil
}

// publish completes ent for its waiters, then evicts it if the engine moved
// past the entry's epoch while the computation ran. Without the eviction a
// single-flight leader that loses a race with Mutate parks a stale vector
// under an old epoch key: Mutate's purge ran before the leader completed, so
// nothing would ever remove it, yet the LRU would still count it. Waiters are
// unaffected — they hold the entry pointer and their admission epoch equals
// the entry's key epoch, so the result is exact for what they asked.
func (e *Engine) publish(ent *cacheEntry, res solution) {
	e.cache.complete(ent, res)
	if ent.key.epoch != e.version.Load().epoch {
		e.cache.remove(ent)
		e.gCacheLen.Set(0, int64(e.cache.len()))
	}
}

// result answers from a completed entry, vector and summary alike.
func (e *Engine) result(ent *cacheEntry, hit bool, snap *metrics.Snapshot) *QueryResult {
	return &QueryResult{
		Source:      int(ent.key.source),
		Epoch:       ent.key.epoch,
		CacheHit:    hit,
		Dist:        ent.res.dist,
		Parent:      ent.res.parent,
		Reachable:   ent.sum.reachable,
		Checksum:    ent.sum.checksum,
		Elapsed:     ent.res.elapsed,
		Settled:     ent.res.settled,
		Relaxations: ent.res.relaxations,
		Metrics:     snap,
	}
}

// admit claims an in-flight slot, waiting in the bounded queue if all are
// busy. It returns ErrSaturated when the queue is full or the wait times
// out, and ErrDraining once Close has begun.
func (e *Engine) admit(ctx context.Context) (int, error) {
	if e.draining.Load() {
		return 0, ErrDraining
	}
	select {
	case slot := <-e.slots:
		e.inflight.Add(1)
		e.gInFlight.Add(0, 1)
		return slot, nil
	default:
	}
	if q := e.queued.Add(1); q > int64(e.cfg.MaxQueue) {
		e.queued.Add(-1)
		e.mShed.Inc(0)
		return 0, ErrSaturated
	}
	e.gQueued.Set(0, e.queued.Load())
	defer func() {
		e.queued.Add(-1)
		e.gQueued.Set(0, e.queued.Load())
	}()
	timer := time.NewTimer(e.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case slot := <-e.slots:
		e.inflight.Add(1)
		e.gInFlight.Add(0, 1)
		return slot, nil
	case <-timer.C:
		e.mShed.Inc(0)
		return 0, ErrSaturated
	case <-e.drained:
		return 0, ErrDraining
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

func (e *Engine) releaseSlot(slot int) {
	e.gInFlight.Add(0, -1)
	e.slots <- slot
	e.inflight.Done()
}

// Draining reports whether Close has begun.
func (e *Engine) Draining() bool { return e.draining.Load() }

// InFlight returns the number of currently executing queries.
func (e *Engine) InFlight() int64 { return e.gInFlight.Value() }

// Close drains the engine: new queries are rejected with ErrDraining,
// queued waiters are woken and shed, and Close blocks until every in-flight
// query finishes or ctx expires (returning ctx's error; the queries keep
// running to completion either way).
func (e *Engine) Close(ctx context.Context) error {
	e.drainOnce.Do(func() {
		// Flip draining under mutMu so it serializes with Mutate's publish:
		// any batch that passed the drain check finishes publishing before
		// draining begins; after that, Mutate rejects with ErrDraining.
		e.mutMu.Lock()
		e.draining.Store(true)
		e.mutMu.Unlock()
		close(e.drained)
	})
	done := make(chan struct{})
	go func() {
		e.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Health is the /healthz payload.
type Health struct {
	Status       string `json:"status"` // "ok" or "draining"
	Epoch        uint64 `json:"epoch"`
	Vertices     int    `json:"vertices"`
	Edges        int    `json:"edges"`
	InFlight     int64  `json:"inflight"`
	Queued       int64  `json:"queued"`
	CacheEntries int    `json:"cache_entries"`
	MaxInFlight  int    `json:"max_inflight"`
	MaxQueue     int    `json:"max_queue"`
}

// Health reports the engine's liveness snapshot.
func (e *Engine) Health() Health {
	status := "ok"
	if e.draining.Load() {
		status = "draining"
	}
	v := e.version.Load()
	return Health{
		Status:       status,
		Epoch:        v.epoch,
		Vertices:     v.g.NumVertices(),
		Edges:        v.g.NumEdges(),
		InFlight:     e.InFlight(),
		Queued:       e.queued.Load(),
		CacheEntries: e.cache.len(),
		MaxInFlight:  e.cfg.MaxInFlight,
		MaxQueue:     e.cfg.MaxQueue,
	}
}
