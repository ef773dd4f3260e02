package graph

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"acic/internal/xrand"
)

func diamond() *Graph {
	// 0 -> 1 (1), 0 -> 2 (4), 1 -> 2 (2), 1 -> 3 (6), 2 -> 3 (3)
	return MustBuild(4, []Edge{
		{0, 1, 1}, {0, 2, 4}, {1, 2, 2}, {1, 3, 6}, {2, 3, 3},
	})
}

func TestBuildBasics(t *testing.T) {
	g := diamond()
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(3) != 0 {
		t.Fatalf("degrees wrong: %d %d", g.OutDegree(0), g.OutDegree(3))
	}
	ts, ws := g.Neighbors(1)
	if len(ts) != 2 || len(ws) != 2 {
		t.Fatalf("Neighbors(1) lengths %d %d", len(ts), len(ws))
	}
}

func TestBuildUnsortedInput(t *testing.T) {
	// Same edges in scrambled order must produce the same adjacency.
	a := diamond()
	b := MustBuild(4, []Edge{
		{2, 3, 3}, {1, 3, 6}, {0, 2, 4}, {1, 2, 2}, {0, 1, 1},
	})
	for v := 0; v < 4; v++ {
		at, aw := a.Neighbors(v)
		bt, bw := b.Neighbors(v)
		if len(at) != len(bt) {
			t.Fatalf("vertex %d degree mismatch", v)
		}
		type pair struct {
			to int32
			w  float64
		}
		ap := make([]pair, len(at))
		bp := make([]pair, len(bt))
		for i := range at {
			ap[i] = pair{at[i], aw[i]}
			bp[i] = pair{bt[i], bw[i]}
		}
		less := func(s []pair) func(i, j int) bool {
			return func(i, j int) bool {
				if s[i].to != s[j].to {
					return s[i].to < s[j].to
				}
				return s[i].w < s[j].w
			}
		}
		sort.Slice(ap, less(ap))
		sort.Slice(bp, less(bp))
		for i := range ap {
			if ap[i] != bp[i] {
				t.Fatalf("vertex %d adjacency differs: %v vs %v", v, ap, bp)
			}
		}
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		n    int
		e    []Edge
	}{
		{"negative n", -1, nil},
		{"source out of range", 2, []Edge{{2, 0, 1}}},
		{"negative source", 2, []Edge{{-1, 0, 1}}},
		{"target out of range", 2, []Edge{{0, 5, 1}}},
		{"negative weight", 2, []Edge{{0, 1, -2}}},
		{"nan weight", 2, []Edge{{0, 1, math.NaN()}}},
		{"inf weight", 2, []Edge{{0, 1, math.Inf(1)}}},
	}
	for _, c := range cases {
		if _, err := Build(c.n, c.e); err == nil {
			t.Errorf("%s: Build succeeded, want error", c.name)
		}
	}
}

func TestBuildEmptyGraph(t *testing.T) {
	g, err := Build(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph not empty")
	}
	if g.MaxWeight() != 0 {
		t.Fatal("MaxWeight on empty graph")
	}
}

func TestSelfLoopsAndDuplicatesPreserved(t *testing.T) {
	g := MustBuild(2, []Edge{{0, 0, 1}, {0, 1, 2}, {0, 1, 2}})
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3 (loops/dups preserved)", g.NumEdges())
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := diamond()
	edges := g.Edges()
	g2 := MustBuild(4, edges)
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("Edges() round trip lost edges")
	}
}

func TestMaxWeight(t *testing.T) {
	if w := diamond().MaxWeight(); w != 6 {
		t.Fatalf("MaxWeight = %v, want 6", w)
	}
}

func TestReverse(t *testing.T) {
	g := diamond()
	r := g.Reverse()
	if r.NumEdges() != g.NumEdges() {
		t.Fatal("Reverse changed edge count")
	}
	ts, ws := r.Neighbors(3)
	if len(ts) != 2 {
		t.Fatalf("in-degree of 3 should be 2, got %d", len(ts))
	}
	seen := map[int32]float64{}
	for i, to := range ts {
		seen[to] = ws[i]
	}
	if seen[1] != 6 || seen[2] != 3 {
		t.Fatalf("reversed weights wrong: %v", seen)
	}
}

// Property: the counting transpose keeps every edge. Row v of Reverse()
// holds v's in-edges, so its out-degrees are g's in-degrees, and a second
// Reverse gives back each source's out-edges as a multiset (self-loops and
// parallel edges included).
func TestQuickReverseTransposes(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw%64) + 1
		m := int(mRaw % 1000)
		r := xrand.New(seed)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{From: int32(r.Intn(n)), To: int32(r.Intn(n)), Weight: float64(r.Intn(8))}
		}
		g := MustBuild(n, edges)
		rev := g.Reverse()
		inDeg := make([]int, n)
		for _, e := range edges {
			inDeg[e.To]++
		}
		for v := 0; v < n; v++ {
			if rev.OutDegree(v) != inDeg[v] {
				return false
			}
		}
		back := rev.Reverse()
		if back.NumEdges() != g.NumEdges() {
			return false
		}
		for v := 0; v < n; v++ {
			if !sameRow(g, back, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Relabel keeps every row, in its edge order, under the new ids, spans
// pages (n up to 700), and refuses anything but a permutation.
func TestQuickRelabel(t *testing.T) {
	f := func(seed uint64, nRaw uint16, mRaw uint16) bool {
		n := int(nRaw%700) + 1
		m := int(mRaw % 4000)
		r := xrand.New(seed)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{From: int32(r.Intn(n)), To: int32(r.Intn(n)), Weight: float64(r.Intn(8))}
		}
		g := MustBuild(n, edges)
		order := make([]int32, n)
		for i, v := range r.Perm(n) {
			order[i] = int32(v)
		}
		newID := make([]int32, n)
		for i, v := range order {
			newID[v] = int32(i)
		}
		h := g.Relabel(order)
		if h.NumVertices() != n || h.NumEdges() != m {
			return false
		}
		for i, v := range order {
			ts, ws := g.Neighbors(int(v))
			hts, hws := h.Neighbors(i)
			if len(ts) != len(hts) {
				return false
			}
			for j := range ts {
				if hts[j] != newID[ts[j]] || hws[j] != ws[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	for _, order := range [][]int32{{0, 1, 2}, {0, 1, 1, 3}, {0, 1, 2, 4}, {0, 1, -1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Relabel(%v) on 4 vertices did not panic", order)
				}
			}()
			diamond().Relabel(order)
		}()
	}
}

// sameRow reports whether v's out-edges in a and b are equal as multisets.
func sameRow(a, b *Graph, v int) bool {
	row := func(g *Graph) []Edge {
		ts, ws := g.Neighbors(v)
		out := make([]Edge, len(ts))
		for i := range ts {
			out[i] = Edge{From: int32(v), To: ts[i], Weight: ws[i]}
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].To != out[j].To {
				return out[i].To < out[j].To
			}
			return out[i].Weight < out[j].Weight
		})
		return out
	}
	ra, rb := row(a), row(b)
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

func TestOutDegreeStats(t *testing.T) {
	g := diamond()
	s := g.OutDegreeStats()
	if s.Min != 0 || s.Max != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if math.Abs(s.Mean-1.25) > 1e-9 {
		t.Fatalf("mean = %v, want 1.25", s.Mean)
	}
	empty, _ := Build(0, nil)
	if s := empty.OutDegreeStats(); s != (DegreeStats{}) {
		t.Fatalf("empty stats = %+v", s)
	}
}

func TestReachableFrom(t *testing.T) {
	// Two components: 0->1->2 and isolated 3->4.
	g := MustBuild(5, []Edge{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}})
	v, e := g.ReachableFrom(0)
	if v != 3 || e != 2 {
		t.Fatalf("ReachableFrom(0) = (%d,%d), want (3,2)", v, e)
	}
	v, e = g.ReachableFrom(3)
	if v != 2 || e != 1 {
		t.Fatalf("ReachableFrom(3) = (%d,%d), want (2,1)", v, e)
	}
	v, e = g.ReachableFrom(2)
	if v != 1 || e != 0 {
		t.Fatalf("ReachableFrom(2) = (%d,%d), want (1,0)", v, e)
	}
}

func TestEachEdgeVisitsAll(t *testing.T) {
	g := diamond()
	count := 0
	var wsum float64
	g.EachEdge(func(from, to int32, w float64) {
		count++
		wsum += w
	})
	if count != 5 || wsum != 16 {
		t.Fatalf("EachEdge visited %d edges, weight sum %v", count, wsum)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	g := diamond()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadCSV(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Fatal("CSV round trip changed shape")
	}
	want := g.Edges()
	got := g2.Edges()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("edge %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestReadCSVFormats(t *testing.T) {
	in := strings.Join([]string{
		"# comment line",
		"",
		"0,1,2.5",
		"1 2 3.5",   // whitespace-separated
		"2\t0",      // PaRMAT-style pair, weight defaults to 1
		"  0 , 2  ", // embedded spaces
	}, "\n")
	g, err := ReadCSV(strings.NewReader(in), 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	ts, ws := g.Neighbors(2)
	if len(ts) != 1 || ts[0] != 0 || ws[0] != 1 {
		t.Fatalf("default weight not applied: %v %v", ts, ws)
	}
}

// TestReadCSVWindowsArtifacts pins tolerance for the byte-level noise real
// edge-list files carry: a UTF-8 byte-order mark (not unicode whitespace,
// so TrimSpace alone leaves it glued to the first vertex id), CRLF line
// endings, and trailing blank lines.
func TestReadCSVWindowsArtifacts(t *testing.T) {
	in := "\ufeff# header\r\n0,1,2.5\r\n1,2,3\r\n2,0,1\r\n\r\n  \r\n"
	g, err := ReadCSV(strings.NewReader(in), 3)
	if err != nil {
		t.Fatalf("BOM/CRLF input rejected: %v", err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	// The BOM is stripped only on line 1, where editors put it; mid-file
	// U+FEFF is genuine garbage and must still be rejected.
	if _, err := ReadCSV(strings.NewReader("0,1,1\n\ufeff1,2,1\n"), 3); err == nil {
		t.Error("mid-file BOM accepted")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"0",        // too few fields
		"x,1,2",    // bad source
		"0,y,2",    // bad target
		"0,1,zz",   // bad weight
		"0,99,1",   // out of range for n=3
		"0,1,-1.5", // negative weight
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), 3); err == nil {
			t.Errorf("ReadCSV(%q) succeeded, want error", in)
		}
	}
}

// Property: for any valid edge list, CSR preserves the edge multiset.
func TestQuickBuildPreservesEdges(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw%100) + 1
		m := int(mRaw % 2000)
		r := xrand.New(seed)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{
				From:   int32(r.Intn(n)),
				To:     int32(r.Intn(n)),
				Weight: float64(r.Intn(100)),
			}
		}
		g, err := Build(n, edges)
		if err != nil {
			return false
		}
		got := g.Edges()
		if len(got) != len(edges) {
			return false
		}
		key := func(e Edge) [3]float64 {
			return [3]float64{float64(e.From), float64(e.To), e.Weight}
		}
		a := make([][3]float64, m)
		b := make([][3]float64, m)
		for i := range edges {
			a[i] = key(edges[i])
			b[i] = key(got[i])
		}
		lessFn := func(s [][3]float64) func(i, j int) bool {
			return func(i, j int) bool {
				for k := 0; k < 3; k++ {
					if s[i][k] != s[j][k] {
						return s[i][k] < s[j][k]
					}
				}
				return false
			}
		}
		sort.Slice(a, lessFn(a))
		sort.Slice(b, lessFn(b))
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: sum of out-degrees equals the edge count.
func TestQuickDegreeSum(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw%64) + 1
		m := int(mRaw % 1000)
		r := xrand.New(seed)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{From: int32(r.Intn(n)), To: int32(r.Intn(n)), Weight: 1}
		}
		g := MustBuild(n, edges)
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.OutDegree(v)
		}
		return sum == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	r := xrand.New(1)
	const n = 1 << 14
	const m = 1 << 18
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{From: int32(r.Intn(n)), To: int32(r.Intn(n)), Weight: r.Float64()}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(n, edges); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNeighborsScan(b *testing.B) {
	r := xrand.New(1)
	const n = 1 << 14
	edges := make([]Edge, 1<<18)
	for i := range edges {
		edges[i] = Edge{From: int32(r.Intn(n)), To: int32(r.Intn(n)), Weight: 1}
	}
	g := MustBuild(n, edges)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for v := 0; v < n; v++ {
			_, ws := g.Neighbors(v)
			for _, w := range ws {
				sink += w
			}
		}
	}
	_ = sink
}
