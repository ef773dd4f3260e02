package cacheline

import "testing"

var sink [][]byte

// TestMakeOwnsItsLines allocates many small arrays back to back, the
// pattern that packs them into shared lines, and checks that no two of
// Make's results share one, nor one of them and a plain allocation made
// between them (the plain ones share an owner: they may pack together).
func TestMakeOwnsItsLines(t *testing.T) {
	var regions []Region
	for i := 0; i < 64; i++ {
		s := Make[[]int](2)
		if len(s) != 2 || cap(s) != 2 {
			t.Fatalf("Make(2): len %d cap %d, want 2 and 2", len(s), cap(s))
		}
		plain := make([]byte, 8)
		sink = append(sink, plain)
		regions = append(regions, SliceRegion(i, s), SliceRegion(-1, plain))
		p := New[[3]int64]()
		regions = append(regions, PtrRegion(1000+i, p))
	}
	if line, a, b, shared := SharedLine(regions); shared {
		t.Fatalf("line %#x shared by %+v and %+v", line, a, b)
	}
}

// TestSharedLine pins the overlap rule on hand-made regions.
func TestSharedLine(t *testing.T) {
	for _, tc := range []struct {
		a, b   Region
		shared bool
	}{
		{Region{0, 0, 64}, Region{1, 64, 64}, false},
		{Region{0, 0, 65}, Region{1, 64, 64}, true},
		{Region{0, 60, 8}, Region{1, 0, 4}, true},
		{Region{0, 0, 64}, Region{0, 0, 64}, false}, // one owner
		{Region{0, 0, 64}, Region{1, 0, 0}, false},  // empty
		{Region{0, 128, 64}, Region{1, 0, 129}, true},
	} {
		if _, _, _, got := SharedLine([]Region{tc.a, tc.b}); got != tc.shared {
			t.Errorf("SharedLine(%+v, %+v) = %v, want %v", tc.a, tc.b, got, tc.shared)
		}
	}
}
