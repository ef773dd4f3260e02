package partition

// Chunked implements the over-decomposition idea of the paper's
// future-work section (§V): the graph is divided into many more contiguous
// chunks than there are PEs, and chunks are dealt round-robin. A scale-free
// hub's neighborhood then spreads across PEs at chunk granularity instead
// of concentrating on whichever PE drew the hub's block, attacking the 1-D
// load imbalance without abandoning contiguous storage within a chunk.
// (The paper additionally proposes migrating chunks at runtime; this static
// round-robin assignment is the non-migratory first step and is what the
// over-decomposition ablation benchmark measures.)
type Chunked struct {
	numVertices int
	numPEs      int
	chunkSize   int32
	numChunks   int

	byChunk, byPEs divisor // reciprocals of chunkSize and numPEs
}

// NewChunked builds an over-decomposed partition with chunksPerPE chunks
// per PE (approximately; the final chunk may be short). chunksPerPE = 1
// degenerates to a block-cyclic layout with PE-count chunks.
func NewChunked(numVertices, numPEs, chunksPerPE int) *Chunked {
	checkShape(numVertices, numPEs)
	if chunksPerPE <= 0 {
		panic("partition: chunksPerPE must be positive")
	}
	totalChunks := numPEs * chunksPerPE
	chunkSize := (numVertices + totalChunks - 1) / totalChunks
	if chunkSize < 1 {
		chunkSize = 1
	}
	numChunks := 0
	if numVertices > 0 {
		numChunks = (numVertices + chunkSize - 1) / chunkSize
	}
	return &Chunked{
		numVertices: numVertices,
		numPEs:      numPEs,
		chunkSize:   int32(chunkSize),
		numChunks:   numChunks,
		byChunk:     newDivisor(chunkSize),
		byPEs:       newDivisor(numPEs),
	}
}

// NumPEs returns the PE count.
func (p *Chunked) NumPEs() int { return p.numPEs }

// NumVertices returns the vertex count.
func (p *Chunked) NumVertices() int { return p.numVertices }

// ChunkSize returns the vertices per chunk (last chunk may be shorter).
func (p *Chunked) ChunkSize() int { return int(p.chunkSize) }

// Owner returns the PE owning vertex v: chunks are dealt round-robin.
//
//acic:noalloc
func (p *Chunked) Owner(v int32) int {
	if v < 0 || int(v) >= p.numVertices {
		outOfRange(v, p.numVertices)
	}
	chunk := p.byChunk.div(uint32(v))
	return int(chunk - p.byPEs.div(chunk)*uint32(p.numPEs))
}

// Size returns the number of vertices stored on PE pe.
func (p *Chunked) Size(pe int) int {
	n := 0
	for chunk := pe; chunk < p.numChunks; chunk += p.numPEs {
		lo := int(chunk) * int(p.chunkSize)
		hi := lo + int(p.chunkSize)
		if hi > p.numVertices {
			hi = p.numVertices
		}
		n += hi - lo
	}
	return n
}

// LocalIndex maps a global vertex id to its index in the owner's local
// store: the owner's chunks are concatenated in ascending chunk order.
func (p *Chunked) LocalIndex(v int32) int {
	chunk := p.byChunk.div(uint32(v))
	offset := uint32(v) - chunk*uint32(p.chunkSize)
	return int(p.byPEs.div(chunk))*int(p.chunkSize) + int(offset)
}

// LocalOn is LocalIndex: this layout derives the index from v alone.
//
//acic:noalloc
func (p *Chunked) LocalOn(pe int, v int32) int { return p.LocalIndex(v) }

// GlobalOf inverts LocalIndex for PE pe.
func (p *Chunked) GlobalOf(pe, local int) int32 {
	localChunk := p.byChunk.div(uint32(local))
	offset := uint32(local) - localChunk*uint32(p.chunkSize)
	chunk := int(localChunk)*p.numPEs + pe
	return int32(chunk)*p.chunkSize + int32(offset)
}
