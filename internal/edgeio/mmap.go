package edgeio

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// MmapSource reads a binary columnar graph file through a read-only
// memory mapping: shards decode blocks straight out of the mapping
// into reused edge buffers — no file handles per shard, no read
// syscalls per block, zero allocations in the steady-state scan.
//
// Close unmaps the file and is idempotent; it must not race a running
// scan (the owning stream closes shards and source together). Every
// block read is bounds-checked against the mapping, so a file that
// shrank after opening surfaces as an error, not a fault.
type MmapSource struct {
	meta  *binaryMeta
	data  []byte
	bytes atomic.Int64

	mu     sync.Mutex
	closed bool
}

// OpenMmapSource opens, validates, and maps the binary file at path.
// On platforms without mmap support (or when the mapping fails) the
// error reports why; use OpenBinarySource for automatic fallback to
// the buffered reader.
func OpenMmapSource(path string) (*MmapSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("edgeio: %w", err)
	}
	defer f.Close()
	meta, err := readBinaryMeta(f, path)
	if err != nil {
		return nil, &formatError{err: err}
	}
	data, err := mmapFile(f, meta.size)
	if err != nil {
		return nil, fmt.Errorf("edgeio: mmap %s: %w", path, err)
	}
	return &MmapSource{meta: meta, data: data}, nil
}

// Nodes implements BinarySource.
func (s *MmapSource) Nodes() int { return int(s.meta.nodes) }

// NumEdges implements BinarySource.
func (s *MmapSource) NumEdges() int64 { return s.meta.edges }

// Weighted implements BinarySource.
func (s *MmapSource) Weighted() bool { return s.meta.weighted }

// Path implements BinarySource.
func (s *MmapSource) Path() string { return s.meta.path }

// BytesScanned implements BinarySource: cumulative block bytes decoded
// out of the mapping across all shards and passes.
func (s *MmapSource) BytesScanned() int64 { return s.bytes.Load() }

// Close unmaps the file. It is idempotent and safe to call from any
// goroutine, but must not race an in-flight scan.
func (s *MmapSource) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	data := s.data
	s.data = nil
	if data == nil {
		return nil
	}
	if err := munmapFile(data); err != nil {
		return fmt.Errorf("edgeio: munmap %s: %w", s.meta.path, err)
	}
	return nil
}

// BlockShards cuts the mapping into 1..k contiguous block ranges.
func (s *MmapSource) BlockShards(k int) []*MmapShard {
	ranges := blockRanges(len(s.meta.index), k)
	backing := make([]MmapShard, len(ranges))
	shards := make([]*MmapShard, len(ranges))
	for i, r := range ranges {
		backing[i] = MmapShard{src: s, lo: r[0], hi: r[1]}
		shards[i] = &backing[i]
	}
	return shards
}

// ShardStarts implements BinarySource.
func (s *MmapSource) ShardStarts(k int) []int64 { return s.meta.shardStarts(k) }

// Shards implements Source.
func (s *MmapSource) Shards(k int) []Reader {
	ms := s.BlockShards(k)
	out := make([]Reader, len(ms))
	for i, sh := range ms {
		out[i] = sh
	}
	return out
}

// WeightedShards implements WeightedSource; unweighted files serve
// weight 1, like the text parsers.
func (s *MmapSource) WeightedShards(k int) []WeightedReader {
	ms := s.BlockShards(k)
	out := make([]WeightedReader, len(ms))
	for i, sh := range ms {
		sh.decodeWeights = s.meta.weighted
		out[i] = mmapWeightedShard{sh}
	}
	return out
}

// MmapShard scans one block range of an MmapSource, decoding straight
// from the mapping. It implements Reader. The decode buffers come out
// of the package pools on the first pass and go back on Close.
type MmapShard struct {
	src    *MmapSource
	lo, hi int

	edges         []Edge
	weights       []float64
	edgeBox       *[]Edge
	weightBox     *[]float64
	decodeWeights bool

	block int
	pos   int
	have  int
}

// Reset implements Reader.
func (sh *MmapShard) Reset() error {
	if sh.src.data == nil {
		return fmt.Errorf("edgeio: Reset on closed mmap source %s", sh.src.meta.path)
	}
	sh.block = sh.lo
	sh.pos, sh.have = 0, 0
	return nil
}

// fill decodes the next block of the range out of the mapping.
func (sh *MmapShard) fill() error {
	if sh.block >= sh.hi {
		return io.EOF
	}
	m := sh.src.meta
	data := sh.src.data
	if data == nil {
		return fmt.Errorf("edgeio: Next on closed mmap source %s", m.path)
	}
	i := sh.block
	off, end := m.index[i].off, m.blockEnd(i)
	if off < 0 || end > int64(len(data)) || off > end {
		return fmt.Errorf("edgeio: %s: block %d extent [%d,%d) outside the %d-byte mapping", m.path, i, off, end, len(data))
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
	edges, weights, err := m.decodeBlock(i, data[off:end], sh.edges, weights)
	if err != nil {
		return err
	}
	sh.edges = edges
	if sh.decodeWeights {
		sh.weights = weights
	}
	sh.src.bytes.Add(end - off)
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
func (sh *MmapShard) NextBlock() ([]Edge, []float64, error) {
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
func (sh *MmapShard) Next() (Edge, error) {
	for sh.pos >= sh.have {
		if err := sh.fill(); err != nil {
			return Edge{}, err
		}
	}
	e := sh.edges[sh.pos]
	sh.pos++
	return e, nil
}

// Close returns the shard's decode buffers to the pools; the mapping
// itself belongs to the source. It is idempotent, and a later Reset
// reacquires buffers, so closing a shard early is safe.
func (sh *MmapShard) Close() error {
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
	return nil
}

// mmapWeightedShard adapts an MmapShard to the weighted lane.
type mmapWeightedShard struct {
	sh *MmapShard
}

// Reset implements WeightedReader.
func (w mmapWeightedShard) Reset() error { return w.sh.Reset() }

// NextBlock is the underlying shard's NextBlock.
func (w mmapWeightedShard) NextBlock() ([]Edge, []float64, error) { return w.sh.NextBlock() }

// Next implements WeightedReader.
func (w mmapWeightedShard) Next() (WeightedEdge, error) {
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

// Close releases the underlying shard's decode buffers.
func (w mmapWeightedShard) Close() error { return w.sh.Close() }
