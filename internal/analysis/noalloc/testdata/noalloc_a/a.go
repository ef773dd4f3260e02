// Package noalloc_a is the noalloc gate fixture: one gated function that
// escapes, one whose allocation is blessed, one clean, and one ungated.
package noalloc_a

type box struct{ v [4]int }

var sink *box

//acic:noalloc
func escapes() {
	sink = &box{}
}

//acic:noalloc
func blessed() {
	sink = &box{} //acic:allow-alloc fixture: the one allocation per run
}

//acic:noalloc
func clean(b *box) int {
	return b.v[0] + b.v[3]
}

// ungated allocates without a promise: no finding.
func ungated() {
	sink = &box{}
}
