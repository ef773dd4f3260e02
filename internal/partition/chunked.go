package partition

// NewChunked is the over-decomposition idea of the paper's future-work
// section (§V) as a relabelling: the graph is divided into about
// chunksPerPE × numPEs contiguous chunks of ⌈numVertices / (numPEs ×
// chunksPerPE)⌉ vertices (the final chunk may be short) and chunk c goes to
// PE c mod numPEs. A scale-free hub's neighborhood then spreads across PEs
// at chunk granularity instead of concentrating on whichever PE drew the
// hub's block. (The paper additionally proposes migrating chunks at
// runtime; this static round-robin deal is the non-migratory first step and
// is what the over-decomposition ablation measures.)
//
// The deal is returned as a permutation: order[i] is the vertex that takes
// id i, and PE p's chunks, in ascending chunk order, fill part's block
// part.Range(p). A run on the graph relabelled by order (graph.Relabel) is
// a plain block-partitioned run, so every layout costs the same on the
// update path.
func NewChunked(numVertices, numPEs, chunksPerPE int) (order []int32, part *OneD) {
	checkShape(numVertices, numPEs)
	if chunksPerPE <= 0 {
		panic("partition: chunksPerPE must be positive")
	}
	totalChunks := numPEs * chunksPerPE
	chunkSize := max((numVertices+totalChunks-1)/totalChunks, 1)
	order = make([]int32, 0, numVertices)
	part = &OneD{numVertices: numVertices, numPEs: numPEs, starts: make([]int32, numPEs+1), custom: true}
	for pe := 0; pe < numPEs; pe++ {
		part.starts[pe] = int32(len(order))
		for lo := pe * chunkSize; lo < numVertices; lo += numPEs * chunkSize {
			for v := lo; v < min(lo+chunkSize, numVertices); v++ {
				order = append(order, int32(v))
			}
		}
	}
	part.starts[numPEs] = int32(numVertices)
	return order, part
}
