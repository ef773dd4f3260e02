package dynamic

// Paged CSR. One direction of one epoch is a page table: page k holds rows
// [k·pageSize, (k+1)·pageSize) as local int32 offsets, targets and weights,
// in CSR order. A batch copies the table and rebuilds only the pages its
// edits touch; every other page is the previous version's, shared by
// pointer. No page is written after the version holding it is published,
// so a reader may keep a version across any number of later batches.

import (
	"fmt"
	"math"
	"slices"

	"acic/internal/graph"
)

// pageShift sets the page size: 256 rows a page. A one-edge batch rebuilds
// one page per direction, about 2,000 edges at edge factor 8, and copies a
// table of |V|/256 pointers.
const (
	pageShift = 8
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// page is pageSize consecutive rows. Row i's edges are
// targets[off[i]:off[i+1]] and the weights beside them. Rows past the
// graph's last vertex (in its last page) are empty.
type page struct {
	off     [pageSize + 1]int32
	targets []int32
	weights []float64
}

// Pages is one direction of one epoch's graph: a page table over immutable
// pages. The graph's rows are read through Neighbors; Graph copies them
// into a flat CSR.
type Pages struct {
	table []*page
	n, m  int
}

// pagesOf returns g's rows as pages that alias g's arrays, which are
// immutable: it copies only each page's offsets, in two allocations
// whatever |V| is.
func pagesOf(g *graph.Graph) *Pages {
	offsets, targets, weights := g.CSR()
	n := g.NumVertices()
	pages := make([]page, (n+pageMask)>>pageShift)
	p := &Pages{table: make([]*page, len(pages)), n: n, m: g.NumEdges()}
	for k := range pages {
		pg := &pages[k]
		base := k << pageShift
		lo, hi := offsets[base], offsets[min(base+pageSize, n)]
		if hi-lo > math.MaxInt32 {
			panic(fmt.Sprintf("dynamic: page %d holds %d edges, more than int32 offsets address", k, hi-lo))
		}
		for i := range pg.off {
			pg.off[i] = int32(offsets[min(base+i, n)] - lo)
		}
		pg.targets, pg.weights = targets[lo:hi:hi], weights[lo:hi:hi]
		p.table[k] = pg
	}
	return p
}

// NumVertices returns |V|.
func (p *Pages) NumVertices() int { return p.n }

// NumEdges returns |E|.
func (p *Pages) NumEdges() int { return p.m }

// Neighbors returns u's row: the far endpoints and weights of its edges,
// aliasing a page that is never written; callers must not modify them.
func (p *Pages) Neighbors(u int) (targets []int32, weights []float64) {
	pg := p.table[u>>pageShift]
	i := u & pageMask
	lo, hi := pg.off[i], pg.off[i+1]
	return pg.targets[lo:hi], pg.weights[lo:hi]
}

// Graph copies the rows into a new flat CSR, in O(|V| + |E|).
func (p *Pages) Graph() *graph.Graph {
	offsets := make([]int64, p.n+1)
	targets := make([]int32, 0, p.m)
	weights := make([]float64, 0, p.m)
	for u := 0; u < p.n; u++ {
		ts, ws := p.Neighbors(u)
		targets = append(targets, ts...)
		weights = append(weights, ws...)
		offsets[u+1] = int64(len(targets))
	}
	return graph.Adopt(offsets, targets, weights)
}

// with returns p with the given rows replaced: a copy of the table in which
// each page holding an edited row is rebuilt, and every other page is p's.
// With no edited row it returns p.
func (p *Pages) with(rows map[int32][]half) *Pages {
	if len(rows) == 0 {
		return p
	}
	edited := make([]int32, 0, len(rows))
	for u := range rows {
		edited = append(edited, u)
	}
	slices.Sort(edited)
	next := &Pages{table: slices.Clone(p.table), n: p.n, m: p.m}
	for len(edited) > 0 {
		k := edited[0] >> pageShift
		j := 1
		for j < len(edited) && edited[j]>>pageShift == k {
			j++
		}
		old := p.table[k]
		next.table[k] = old.with(k<<pageShift, edited[:j], rows)
		next.m += len(next.table[k].targets) - len(old.targets)
		edited = edited[j:]
	}
	return next
}

// with returns a new page for rows [base, base+pageSize): pg's rows, with
// each row in edited (ascending, all in this page) replaced by rows[u].
// Each run of unedited rows is copied at once, its offsets shifted.
func (pg *page) with(base int32, edited []int32, rows map[int32][]half) *page {
	size := len(pg.targets)
	for _, u := range edited {
		i := u - base
		size += len(rows[u]) - int(pg.off[i+1]-pg.off[i])
	}
	np := &page{targets: make([]int32, size), weights: make([]float64, size)}
	var pos int32
	next := int32(0) // first row of the next unedited run
	run := func(end int32) {
		lo, hi := pg.off[next], pg.off[end]
		for i := next; i < end; i++ {
			np.off[i] = pg.off[i] - lo + pos
		}
		copy(np.targets[pos:], pg.targets[lo:hi])
		copy(np.weights[pos:], pg.weights[lo:hi])
		pos += hi - lo
	}
	for _, u := range edited {
		i := u - base
		run(i)
		np.off[i] = pos
		for _, h := range rows[u] {
			np.targets[pos], np.weights[pos] = h.v, h.w
			pos++
		}
		next = i + 1
	}
	run(pageSize)
	np.off[pageSize] = pos
	return np
}
