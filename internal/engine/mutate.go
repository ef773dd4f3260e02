package engine

// Mutation support: the engine owns a dynamic.Graph — its current version
// and that version's transpose, each a graph.Graph over immutable pages —
// and applies batched edge mutations to it, advancing the engine epoch
// once per batch. Apply rebuilds only the pages holding the rows the batch
// edited, shares every other page with the old version, and widens the
// weight range by the batch's new weights; the engine publishes the result
// (dynamic.Current) as its next version. Resident cached distance
// vectors are not discarded — they are carried over to the new epoch, so
// the query mix that was hot before a mutation stays hot after it. A batch
// costs what it changes: a vector the batch cannot alter (dynamic.Affects)
// is re-homed by pointer, only the others are copied and repaired
// incrementally (dynamic.Repair). A rejected batch leaves the graph, the
// version and the cache as they were.
// Everything runs under mutMu; queries are never blocked, they just keep
// reading the old version until the new one is published.

import (
	"errors"
	"fmt"
	"time"

	"acic/internal/dynamic"
)

// Mutation-path sentinels; the HTTP layer maps each to a status code.
var (
	// ErrBadMutation wraps a rejected mutation batch (out-of-range vertex,
	// bad weight, missing edge). The graph and epoch are unchanged. Maps
	// to 400.
	ErrBadMutation = errors.New("engine: bad mutation batch")
)

// MutateResult describes one applied batch.
type MutateResult struct {
	// Epoch is the engine epoch after the batch.
	Epoch uint64
	// Inserted/Deleted/Reweighted count the batch by op.
	Inserted, Deleted, Reweighted int
	// Edges is the graph's edge count after the batch.
	Edges int
	// RepairedVectors counts resident cached vectors carried over to the
	// new epoch, whether shared unchanged or copied and repaired.
	RepairedVectors int
	// CopiedVectors counts the carried-over vectors the batch could alter,
	// which were copied and repaired; the rest are shared by pointer.
	CopiedVectors int
	// InvalidatedLabels totals the subtree labels discarded across those
	// repairs (the increase-phase damage).
	InvalidatedLabels int
	// Elapsed is the wall time of apply + repair + publish.
	Elapsed time.Duration
}

// Mutate applies one batch of edge mutations atomically: either the whole
// batch lands, the engine epoch advances by exactly one, stale cache entries
// are evicted, and every resident completed vector is re-cached under the
// new epoch (repaired in a copy if the batch alters it) — or the batch is
// rejected (ErrBadMutation) and graph, epoch, and cache are all unchanged.
// An empty batch is rejected too: a no-op that advanced the epoch would
// purge and re-home the whole cache for nothing.
//
// Concurrent queries are linearized at the version swap: a query admitted
// before the swap reads the old (epoch, graph) pair and its result is exact
// for that epoch; a query admitted after reads the new pair. No query ever
// observes a vector from a different epoch than the one in its response.
func (e *Engine) Mutate(batch []dynamic.Mutation) (*MutateResult, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadMutation)
	}
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	// Checked under mutMu: Close flips draining while holding mutMu, so once
	// this passes no drain can begin before this batch publishes — and once
	// draining is observed, no new version is ever published.
	if e.draining.Load() {
		return nil, ErrDraining
	}

	start := time.Now()
	old := e.version.Load()
	// Harvest the vectors to carry over BEFORE mutating: entries that
	// complete after this point are dropped by purgeStale (or evicted by
	// their own leader's publish), never served stale.
	resident := e.cache.completed(old.epoch)

	d, err := e.dg.Apply(batch)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrBadMutation, err)
	}
	mr := &MutateResult{
		Epoch:      old.epoch + 1,
		Inserted:   d.Inserted,
		Deleted:    d.Deleted,
		Reweighted: d.Reweighted,
		Edges:      e.dg.NumEdges(),
	}

	// Carry the resident vectors over. The cached slices are shared
	// read-only with every response already handed out, so a vector the
	// batch alters is repaired in a copy; any other is exact as it stands
	// and is re-homed by pointer, summary and all.
	carried := make([]solution, len(resident))
	sums := make([]summary, len(resident))
	for i, ent := range resident {
		carried[i], sums[i] = ent.res, ent.sum
		if !e.dg.Affects(ent.res.dist, ent.res.parent, d) {
			continue
		}
		res := ent.res
		res.dist = append([]float64(nil), res.dist...)
		res.parent = append([]int32(nil), res.parent...)
		st := e.dg.Repair(int(ent.key.source), res.dist, res.parent, d)
		mr.InvalidatedLabels += st.Invalidated
		mr.CopiedVectors++
		carried[i], sums[i] = res, summarize(res.dist)
	}

	// Publish: swap the version, drop everything stale, re-home the
	// carried vectors — oldest first, as harvested, so the sources that
	// were hot before the batch are still the last to be evicted after it.
	// Queries admitted from here on see the new epoch.
	e.version.Store(newVersion(mr.Epoch, e.dg.Current()))
	e.cache.purgeStale(mr.Epoch)
	for i, ent := range resident {
		e.cache.put(cacheKey{epoch: mr.Epoch, source: ent.key.source}, carried[i], sums[i])
	}
	mr.RepairedVectors = len(carried)
	e.gCacheLen.Set(0, int64(e.cache.len()))
	e.mMutations.Inc(0)
	e.mRepairedVec.Add(0, int64(len(carried)))
	e.mCopiedVec.Add(0, int64(mr.CopiedVectors))
	mr.Elapsed = time.Since(start)
	return mr, nil
}
