package edgeio

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// BinarySource is the common surface of the binary-file readers: a
// sharded, re-scannable edge source (both lanes) that knows its node
// and edge counts from the header — no discovery pass — and releases
// its resources on Close.
type BinarySource interface {
	Source
	WeightedSource
	// Nodes is the header's node count (max id + 1 over the edges).
	Nodes() int
	// NumEdges is the trailer's total edge count.
	NumEdges() int64
	// ShardStarts returns, for the shards Shards(k) and WeightedShards(k)
	// cut, the record number of each shard's first edge, taken from the
	// block index, followed by NumEdges: shard i holds the edges
	// [starts[i], starts[i+1]).
	ShardStarts(k int) []int64
	// Weighted reports whether the file carries a weight column.
	Weighted() bool
	// Path returns the file path.
	Path() string
	// BytesScanned returns the cumulative bytes decoded across all
	// shards and passes.
	BytesScanned() int64
	// Close releases file handles or mappings. Shards must not be used
	// after Close.
	Close() error
}

// OpenBinarySource opens the binary graph file at path through the
// fastest available reader: the mmap-backed source where the platform
// supports it, falling back to the buffered file source when mapping
// is unavailable or fails.
func OpenBinarySource(path string) (BinarySource, error) {
	if src, err := OpenMmapSource(path); err == nil {
		return src, nil
	} else if _, ok := err.(*formatError); ok {
		// A malformed file fails the same way on both readers; don't
		// mask the descriptive error with a fallback attempt.
		return nil, err
	}
	return OpenBinaryFileSource(path)
}

// formatError marks meta-validation failures so OpenBinarySource can
// distinguish "bad file" from "mmap unavailable".
type formatError struct{ err error }

func (e *formatError) Error() string { return e.err.Error() }
func (e *formatError) Unwrap() error { return e.err }

// BinaryFileSource reads a binary columnar graph file through buffered
// file I/O. Shards cover contiguous block ranges (a function of the
// block count and k only); each shard owns its file handle and reuses
// one raw block buffer and one decoded edge buffer across blocks and
// passes, so a steady-state scan performs no allocations.
type BinaryFileSource struct {
	meta  *binaryMeta
	bytes atomic.Int64
}

// OpenBinaryFileSource opens and validates the binary file at path.
func OpenBinaryFileSource(path string) (*BinaryFileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("edgeio: %w", err)
	}
	defer f.Close()
	meta, err := readBinaryMeta(f, path)
	if err != nil {
		return nil, err
	}
	return &BinaryFileSource{meta: meta}, nil
}

// Nodes implements BinarySource.
func (s *BinaryFileSource) Nodes() int { return int(s.meta.nodes) }

// NumEdges implements BinarySource.
func (s *BinaryFileSource) NumEdges() int64 { return s.meta.edges }

// Weighted implements BinarySource.
func (s *BinaryFileSource) Weighted() bool { return s.meta.weighted }

// Path implements BinarySource.
func (s *BinaryFileSource) Path() string { return s.meta.path }

// BytesScanned implements BinarySource.
func (s *BinaryFileSource) BytesScanned() int64 { return s.bytes.Load() }

// Close implements BinarySource. The source holds no file handle of
// its own (shards own theirs, released by their Close), so this is a
// no-op kept for interface symmetry with MmapSource.
func (s *BinaryFileSource) Close() error { return nil }

// BlockShards cuts the file into 1..k contiguous block ranges.
func (s *BinaryFileSource) BlockShards(k int) []*BinaryShard {
	ranges := blockRanges(len(s.meta.index), k)
	backing := make([]BinaryShard, len(ranges))
	shards := make([]*BinaryShard, len(ranges))
	for i, r := range ranges {
		backing[i] = BinaryShard{src: s, lo: r[0], hi: r[1]}
		shards[i] = &backing[i]
	}
	return shards
}

// ShardStarts implements BinarySource.
func (s *BinaryFileSource) ShardStarts(k int) []int64 { return s.meta.shardStarts(k) }

// Shards implements Source.
func (s *BinaryFileSource) Shards(k int) []Reader {
	bs := s.BlockShards(k)
	out := make([]Reader, len(bs))
	for i, sh := range bs {
		out[i] = sh
	}
	return out
}

// WeightedShards implements WeightedSource. Unweighted files serve
// weight 1, like the text parsers.
func (s *BinaryFileSource) WeightedShards(k int) []WeightedReader {
	bs := s.BlockShards(k)
	out := make([]WeightedReader, len(bs))
	for i, sh := range bs {
		sh.decodeWeights = s.meta.weighted
		out[i] = binaryWeightedShard{sh}
	}
	return out
}

// blockRanges splits nblocks into at most k contiguous [lo,hi) ranges,
// depending only on nblocks and k. An empty file yields one empty
// range so callers always get at least one (empty) shard.
func blockRanges(nblocks, k int) [][2]int {
	if k < 1 {
		k = 1
	}
	if k > nblocks {
		k = nblocks
	}
	if k < 1 {
		return [][2]int{{0, 0}}
	}
	out := make([][2]int, k)
	for i := 0; i < k; i++ {
		out[i] = [2]int{nblocks * i / k, nblocks * (i + 1) / k}
	}
	return out
}

// shardStarts returns the first record number of each of the k block
// ranges blockRanges cuts, followed by the total edge count.
func (m *binaryMeta) shardStarts(k int) []int64 {
	ranges := blockRanges(len(m.index), k)
	starts := make([]int64, len(ranges)+1)
	for i, r := range ranges {
		if r[0] < len(m.index) {
			starts[i] = m.index[r[0]].first
		}
	}
	starts[len(ranges)] = m.edges
	return starts
}

// BinaryShard scans one block range of a BinaryFileSource. It
// implements Reader; WeightedShards wraps it for the weighted lane.
// The raw, edge, and weight buffers come out of the package pools on
// the first pass, are reused for every later block and pass, and go
// back on Close.
type BinaryShard struct {
	src    *BinaryFileSource
	lo, hi int // block range [lo, hi)

	f             *os.File
	raw           []byte
	edges         []Edge
	weights       []float64
	rawBox        *[]byte
	edgeBox       *[]Edge
	weightBox     *[]float64
	decodeWeights bool

	block  int // next block to decode
	pos    int // next edge within the decoded block
	have   int // decoded edges available
	closed bool
}

// Reset implements Reader, (re)positioning the shard at its first
// block and opening the file handle on first use.
func (sh *BinaryShard) Reset() error {
	if sh.closed {
		return fmt.Errorf("edgeio: Reset on closed shard of %s", sh.src.meta.path)
	}
	if sh.f == nil {
		f, err := os.Open(sh.src.meta.path)
		if err != nil {
			return fmt.Errorf("edgeio: %w", err)
		}
		sh.f = f
	}
	sh.block = sh.lo
	sh.pos, sh.have = 0, 0
	return nil
}

// fill reads and decodes the next block into the shard's buffers.
func (sh *BinaryShard) fill() error {
	if sh.closed {
		return fmt.Errorf("edgeio: Next on closed shard of %s", sh.src.meta.path)
	}
	if sh.f == nil {
		if err := sh.Reset(); err != nil {
			return err
		}
	}
	if sh.block >= sh.hi {
		return io.EOF
	}
	m := sh.src.meta
	i := sh.block
	size := int(m.blockEnd(i) - m.index[i].off)
	if cap(sh.raw) < size {
		if sh.rawBox == nil {
			sh.rawBox = rawPool.Get().(*[]byte)
		}
		if cap(*sh.rawBox) < size {
			*sh.rawBox = make([]byte, size)
		}
		sh.raw = *sh.rawBox
	}
	raw := sh.raw[:size]
	if _, err := sh.f.ReadAt(raw, m.index[i].off); err != nil {
		return fmt.Errorf("edgeio: %s: reading block %d at offset %d: %w", m.path, i, m.index[i].off, err)
	}
	if cap(sh.edges) < m.maxCount {
		if sh.edgeBox == nil {
			sh.edgeBox = edgePool.Get().(*[]Edge)
		}
		if cap(*sh.edgeBox) < m.maxCount {
			*sh.edgeBox = make([]Edge, m.maxCount)
		}
		sh.edges = *sh.edgeBox
		if sh.decodeWeights {
			if sh.weightBox == nil {
				sh.weightBox = weightPool.Get().(*[]float64)
			}
			if cap(*sh.weightBox) < m.maxCount {
				*sh.weightBox = make([]float64, m.maxCount)
			}
			sh.weights = *sh.weightBox
		}
	}
	var weights []float64
	if sh.decodeWeights {
		weights = sh.weights
	}
	edges, weights, err := m.decodeBlock(i, raw, sh.edges, weights)
	if err != nil {
		return err
	}
	sh.edges = edges
	if sh.decodeWeights {
		sh.weights = weights
	}
	sh.src.bytes.Add(int64(size))
	sh.block++
	sh.pos, sh.have = 0, len(edges)
	return nil
}

// NextBlock returns the rest of the current block, decoding the next
// block of the range when the current one is used up: its edges and,
// when the shard decodes weights (the weighted lane of a weighted
// file), their weights, else nil. Both alias the shard's buffers and
// stay valid until the next call; io.EOF ends the range. It is Next a
// block at a time, for readers that would otherwise pay a call per
// edge.
func (sh *BinaryShard) NextBlock() ([]Edge, []float64, error) {
	for sh.pos >= sh.have {
		if err := sh.fill(); err != nil {
			return nil, nil, err
		}
	}
	lo := sh.pos
	sh.pos = sh.have
	if !sh.decodeWeights {
		return sh.edges[lo:sh.have], nil, nil
	}
	return sh.edges[lo:sh.have], sh.weights[lo:sh.have], nil
}

// Next implements Reader.
func (sh *BinaryShard) Next() (Edge, error) {
	for sh.pos >= sh.have {
		if err := sh.fill(); err != nil {
			return Edge{}, err
		}
	}
	e := sh.edges[sh.pos]
	sh.pos++
	return e, nil
}

// Close releases the shard's file handle and returns its decode
// buffers to the pools. It is idempotent.
func (sh *BinaryShard) Close() error {
	if sh.closed {
		return nil
	}
	sh.closed = true
	if sh.rawBox != nil {
		*sh.rawBox = sh.raw[:cap(sh.raw)]
		rawPool.Put(sh.rawBox)
		sh.rawBox, sh.raw = nil, nil
	}
	if sh.edgeBox != nil {
		*sh.edgeBox = sh.edges[:cap(sh.edges)]
		edgePool.Put(sh.edgeBox)
		sh.edgeBox, sh.edges = nil, nil
	}
	if sh.weightBox != nil {
		*sh.weightBox = sh.weights[:cap(sh.weights)]
		weightPool.Put(sh.weightBox)
		sh.weightBox, sh.weights = nil, nil
	}
	sh.pos, sh.have = 0, 0
	if sh.f == nil {
		return nil
	}
	return sh.f.Close()
}

// binaryWeightedShard adapts a BinaryShard to the weighted lane;
// unweighted files serve weight 1.
type binaryWeightedShard struct {
	sh *BinaryShard
}

// Reset implements WeightedReader.
func (w binaryWeightedShard) Reset() error { return w.sh.Reset() }

// NextBlock is the underlying shard's NextBlock.
func (w binaryWeightedShard) NextBlock() ([]Edge, []float64, error) { return w.sh.NextBlock() }

// Next implements WeightedReader.
func (w binaryWeightedShard) Next() (WeightedEdge, error) {
	sh := w.sh
	for sh.pos >= sh.have {
		if err := sh.fill(); err != nil {
			return WeightedEdge{}, err
		}
	}
	e := WeightedEdge{U: sh.edges[sh.pos].U, V: sh.edges[sh.pos].V, Weight: 1}
	if sh.decodeWeights {
		e.Weight = sh.weights[sh.pos]
	}
	sh.pos++
	return e, nil
}

// Close releases the underlying shard's file handle.
func (w binaryWeightedShard) Close() error { return w.sh.Close() }
