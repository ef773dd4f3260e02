// Package engine is the resident SSSP query engine behind cmd/acic-serve:
// the piece that turns the batch reproduction (build the simulated machine,
// solve one source, tear it down) into a long-lived service answering many
// queries over one shared graph.
//
// One Engine serves one graph version at a time: an epoch, an immutable
// *graph.Graph and its reverse, published together behind one atomic
// pointer and shared read-only by every concurrent query (the CSR arrays
// are never written after they are built; internal/core's concurrent-runs
// test pins that contract). A static engine transposes its graph once; a
// dynamic one (mutate.go) splices both directions from the previous
// version on every mutation batch. Around the version it maintains:
//
//   - Per-admission-slot scratch, checked out for the duration of a query:
//     a core.Scratch, so repeated misses recycle the arena and per-PE
//     state instead of reallocating the machine, and the point-to-point
//     search's labels and heaps. The Scratch exclusivity latch
//     (core.ErrScratchInUse) backstops the pool: a bookkeeping bug fails
//     loudly instead of corrupting state.
//
//   - An LRU cache of completed distance vectors keyed by (graph epoch,
//     source), with single-flight deduplication: concurrent identical
//     queries ride one computation, and followers do not consume admission
//     slots while they wait.
//
//   - Admission control: a bounded in-flight-slot semaphore sized to the
//     simulated machine's capacity, plus a bounded wait queue. A query that
//     finds the queue full — or waits longer than the queue timeout — is
//     shed with ErrSaturated, which the HTTP layer maps to 429 +
//     Retry-After. Fan-in beyond PE capacity degrades by rejecting, never
//     by queueing unboundedly.
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

	"acic/internal/core"
	"acic/internal/dynamic"
	"acic/internal/graph"
	"acic/internal/metrics"
	"acic/internal/netsim"
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
	// Topo is the simulated machine each query runs on; zero means the
	// core default (a single node with 4 PEs).
	Topo netsim.Topology
	// Latency is the network model for query runs.
	Latency netsim.LatencyModel
	// Params are the ACIC algorithm parameters; zero means DefaultParams.
	Params core.Params
	// MaxInFlight bounds concurrently executing queries (and sizes the
	// Scratch pool and the metrics shards). Default 4.
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

// graphVersion is one immutable (epoch, graph, reverse graph) triple.
// Queries load the current version exactly once, so the epoch they admit
// under and the CSR arrays they read always belong together even while a
// mutation swaps the version underneath them. rev is g with every edge
// flipped, for the backward half of the point-to-point search.
type graphVersion struct {
	epoch uint64
	g     *graph.Graph
	rev   *graph.Graph
}

// slotScratch is what one admission slot reuses from query to query: the
// solver's core.Scratch for misses and the labels and heaps of the
// point-to-point search.
type slotScratch struct {
	solve *core.Scratch
	path  pathSearch
}

// Engine is a resident SSSP query engine over one shared graph version.
// Construct with New (static graph) or NewDynamic (mutable graph, see
// mutate.go); all methods are safe for concurrent use.
type Engine struct {
	version atomic.Pointer[graphVersion]
	cfg     Config

	// dg is the mutable graph behind a dynamic engine; nil for static
	// engines. mutMu serializes Mutate and InvalidateCache — the only
	// operations that swap the version pointer.
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
	met          *metrics.Registry
	mQueries     *metrics.Counter
	mHits        *metrics.Counter
	mMisses      *metrics.Counter
	mFollows     *metrics.Counter
	mShed        *metrics.Counter
	mErrors      *metrics.Counter
	mP2P         *metrics.Counter
	mP2PPruned   *metrics.Counter
	mP2PSettled  *metrics.Counter
	mMutations   *metrics.Counter
	mRepairedVec *metrics.Counter
	mCopiedVec   *metrics.Counter
	gInFlight    *metrics.Gauge
	gQueued      *metrics.Gauge
	gCacheLen    *metrics.Gauge
	hQueryMicros *metrics.Histogram

	// svcNanos is an EWMA of recent query service time in nanoseconds
	// (α = 1/8), fed by every completed computation. The HTTP layer
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

// New builds an Engine serving queries over g. The graph must not be
// mutated afterwards — every query shares it read-only. New transposes it
// once for the point-to-point search.
func New(g *graph.Graph, cfg Config) (*Engine, error) {
	if g == nil {
		return nil, errors.New("engine: nil graph")
	}
	return newEngine(g, g.Reverse(), cfg)
}

// newEngine builds an Engine over g and its reverse rev at epoch 0.
func newEngine(g, rev *graph.Graph, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Topo != (netsim.Topology{}) {
		if err := cfg.Topo.Validate(); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		cfg:     cfg,
		slots:   make(chan int, cfg.MaxInFlight),
		scratch: make([]slotScratch, cfg.MaxInFlight),
		cache:   newLRUCache(cfg.CacheEntries),
		drained: make(chan struct{}),
		met:     metrics.New(cfg.MaxInFlight),
	}
	e.version.Store(&graphVersion{g: g, rev: rev})
	for i := 0; i < cfg.MaxInFlight; i++ {
		e.scratch[i].solve = &core.Scratch{}
		e.slots <- i
	}
	e.mQueries = e.met.Counter("engine.queries")
	e.mHits = e.met.Counter("engine.cache_hits")
	e.mMisses = e.met.Counter("engine.cache_misses")
	e.mFollows = e.met.Counter("engine.singleflight_follows")
	e.mShed = e.met.Counter("engine.shed")
	e.mErrors = e.met.Counter("engine.errors")
	e.mP2P = e.met.Counter("engine.p2p_queries")
	e.mP2PPruned = e.met.Counter("engine.p2p_pruned_relaxations")
	e.mP2PSettled = e.met.Counter("engine.p2p_settled")
	e.mMutations = e.met.Counter("engine.mutations")
	e.mRepairedVec = e.met.Counter("engine.repaired_vectors")
	e.mCopiedVec = e.met.Counter("engine.copied_vectors")
	e.gInFlight = e.met.Gauge("engine.inflight")
	e.gQueued = e.met.Gauge("engine.queued")
	e.gCacheLen = e.met.Gauge("engine.cache_entries")
	e.hQueryMicros = e.met.Histogram("engine.query_us")
	return e, nil
}

// Graph returns the engine's current graph snapshot. For a dynamic engine
// this is the CSR of the latest applied epoch; mutations never touch a
// returned snapshot.
func (e *Engine) Graph() *graph.Graph { return e.version.Load().g }

// Epoch returns the current graph epoch. Epochs key the cache; every
// Mutate batch (and every InvalidateCache call) advances it by one, making
// stale vectors unreachable.
func (e *Engine) Epoch() uint64 { return e.version.Load().epoch }

// InvalidateCache advances the graph epoch (same graph, new version) and
// drops every cached vector.
func (e *Engine) InvalidateCache() {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	old := e.version.Load()
	e.version.Store(&graphVersion{epoch: old.epoch + 1, g: old.g, rev: old.rev})
	e.cache.purge()
	e.gCacheLen.Set(0, int64(e.cache.len()))
}

// MetricsSnapshot captures the engine-level instrument registry.
func (e *Engine) MetricsSnapshot() metrics.Snapshot { return e.met.Snapshot() }

// QueryOptions tune one query.
type QueryOptions struct {
	// CollectMetrics attaches a per-query metrics registry to the
	// underlying core.Run and returns its snapshot. Snapshots come only
	// from queries that actually compute — a cache hit returns nil.
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
	// Reachable and Checksum summarize Dist, stored with the cached vector.
	Reachable int
	Checksum  float64
	Stats     core.Stats
	// Metrics is the per-query registry snapshot when requested and the
	// query computed (nil on cache hits).
	Metrics *metrics.Snapshot
}

// Query answers a single-source query, serving from the cache when the
// (epoch, source) vector is resident and computing (under admission
// control, with single-flight dedup) otherwise.
func (e *Engine) Query(ctx context.Context, source int, opts QueryOptions) (*QueryResult, error) {
	e.mQueries.Inc(0)
	v := e.version.Load() // one load: epoch and graph stay a consistent pair
	if source < 0 || source >= v.g.NumVertices() {
		e.mErrors.Inc(0)
		return nil, fmt.Errorf("%w: source %d not in [0,%d)", ErrBadVertex, source, v.g.NumVertices())
	}
	key := cacheKey{epoch: v.epoch, source: int32(source)}

	// Fast path: a resident or in-flight entry answers without admission.
	if ent, ok := e.cache.get(key); ok {
		err := e.await(ctx, ent)
		if err == nil {
			e.mHits.Inc(0)
			return e.result(ent, true, nil), nil
		}
		if !errors.Is(err, errEntryFailed) {
			return nil, err // context cancelled while waiting
		}
		// The computation this entry tracked failed; fall through and
		// compute it ourselves.
	}

	slot, err := e.admit(ctx)
	if err != nil {
		return nil, err
	}

	ent, leader := e.cache.getOrCreate(key)
	e.gCacheLen.Set(0, int64(e.cache.len()))
	if !leader {
		// Someone beat us to it between the fast path and here; don't sit
		// on a slot while following their computation.
		e.releaseSlot(slot)
		e.mFollows.Inc(0)
		if err := e.await(ctx, ent); err != nil {
			if errors.Is(err, errEntryFailed) {
				err = ent.err
			}
			return nil, err
		}
		return e.result(ent, true, nil), nil
	}

	defer e.releaseSlot(slot)
	e.mMisses.Inc(slot)
	start := time.Now()
	res, snap, err := e.compute(v.g, source, slot, opts.CollectMetrics)
	svc := time.Since(start)
	e.hQueryMicros.Observe(slot, svc.Microseconds())
	e.observeService(svc)
	if err != nil {
		e.mErrors.Inc(slot)
		e.cache.fail(ent, err)
		return nil, err
	}
	e.publish(ent, res)
	return e.result(ent, false, snap), nil
}

// publish completes ent for its waiters, then evicts it if the engine moved
// past the entry's epoch while the computation ran. Without the eviction a
// single-flight leader that loses a race with Mutate parks a stale vector
// under an old epoch key: Mutate's purge ran before the leader completed, so
// nothing would ever remove it, yet the LRU still counts it and a later
// InvalidateCache-then-rollback pattern could resurface it. Waiters are
// unaffected — they hold the entry pointer and their admission epoch equals
// the entry's key epoch, so the result is exact for what they asked.
func (e *Engine) publish(ent *cacheEntry, res *core.Result) {
	e.cache.complete(ent, res)
	if ent.key.epoch != e.version.Load().epoch {
		e.cache.remove(ent)
		e.gCacheLen.Set(0, int64(e.cache.len()))
	}
}

// result answers from a completed entry, vector and summary alike.
func (e *Engine) result(ent *cacheEntry, hit bool, snap *metrics.Snapshot) *QueryResult {
	return &QueryResult{
		Source:    int(ent.key.source),
		Epoch:     ent.key.epoch,
		CacheHit:  hit,
		Dist:      ent.res.Dist,
		Parent:    ent.res.Parent,
		Reachable: ent.sum.reachable,
		Checksum:  ent.sum.checksum,
		Stats:     ent.res.Stats,
		Metrics:   snap,
	}
}

// compute runs the full ACIC machine for one source on slot's Scratch,
// against the graph version the caller admitted under.
func (e *Engine) compute(g *graph.Graph, source, slot int, collectMetrics bool) (*core.Result, *metrics.Snapshot, error) {
	var reg *metrics.Registry
	if collectMetrics {
		topo := e.cfg.Topo
		if topo == (netsim.Topology{}) {
			topo = netsim.SingleNode(4)
		}
		reg = metrics.New(topo.TotalPEs())
	}
	res, err := core.Run(g, source, core.Options{
		Topo:    e.cfg.Topo,
		Latency: e.cfg.Latency,
		Params:  e.cfg.Params,
		Metrics: reg,
		Scratch: e.scratch[slot].solve,
	})
	if err != nil {
		return nil, nil, err
	}
	var snap *metrics.Snapshot
	if reg != nil {
		s := reg.Snapshot()
		snap = &s
	}
	return res, snap, nil
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

// await blocks until ent's computation completes (or ctx is cancelled);
// errEntryFailed signals the leader errored.
func (e *Engine) await(ctx context.Context, ent *cacheEntry) error {
	select {
	case <-ent.ready:
	case <-ctx.Done():
		return ctx.Err()
	}
	if ent.err != nil {
		return errEntryFailed
	}
	return nil
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
	PEs          int    `json:"pes"`
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
		PEs:          e.cfg.Topo.TotalPEs(),
		InFlight:     e.InFlight(),
		Queued:       e.queued.Load(),
		CacheEntries: e.cache.len(),
		MaxInFlight:  e.cfg.MaxInFlight,
		MaxQueue:     e.cfg.MaxQueue,
	}
}
