package edgeio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Binary columnar graph format ("BSG1"): the compact on-disk layout of
// the out-of-core layer. A file is a fixed header, a run of columnar
// edge blocks, a block index, and a trailer:
//
//	header   magic "BSG1" | version u16 | flags u16 (bit0 weighted) | nodes u64
//	block    count u32 | payloadLen u32 | encoding u8 | payload
//	index    blockCount × { offset u64 | count u32 }
//	trailer  indexOff u64 | edges u64 | blockCount u32 | magic "BSG1-END"
//
// All integers are little-endian. A block's payload holds the src
// column, then the dst column, then (weighted files only) the float64
// weight column. Encoding 0 is fixed-width: count u32 srcs, count u32
// dsts. Encoding 1 is delta-varint: the first src as a uvarint followed
// by uvarint deltas (the writer uses it only when the block's srcs are
// non-negative and non-decreasing — sorted inputs compress several
// fold), and each dst as an absolute uvarint. Weights are always
// fixed-width float64 bits.
//
// nodes in the header is maxID+1 over the written edges (0 for an empty
// file), so readers need no discovery pass; the index in the footer
// makes a file seekable by record number and shardable by block range
// without scanning. Edges are stored verbatim — unlike the lenient text
// format there are no comments to skip, and the writer performs no
// graph-level filtering (the graph writers and the converter never emit
// self loops, so files produced by this repository match the text
// parsers' semantics).

const (
	binaryMagic      = "BSG1"
	binaryEndMagic   = "BSG1-END"
	binaryVersion    = 1
	binaryFlagWeight = 1 << 0

	binaryHeaderSize  = 16
	binaryBlockHdr    = 9
	binaryIndexEntry  = 12
	binaryTrailerSize = 28

	blockFixed  = 0
	blockVarint = 1

	// DefaultBlockEdges is the writer's default edges-per-block. 8192
	// edges keep a fixed-width unweighted block at 64 KiB — one buffered
	// read — while the index stays tiny (12 bytes per block).
	DefaultBlockEdges = 8192
)

// DetectBinary reports whether the file at path starts with the binary
// graph magic. Short and empty files are simply not binary.
func DetectBinary(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("edgeio: %w", err)
	}
	defer f.Close()
	var buf [4]byte
	if _, err := io.ReadFull(f, buf[:]); err != nil {
		return false, nil
	}
	return string(buf[:]) == binaryMagic, nil
}

// blockRef is one index entry held in memory: where a block starts,
// how many edges it holds, and the record number of its first edge.
type blockRef struct {
	off   int64
	count int
	first int64
}

// binaryMeta is the decoded header + index of one binary file.
type binaryMeta struct {
	path     string
	size     int64
	weighted bool
	nodes    int64
	edges    int64
	index    []blockRef
	maxCount int // largest block edge count, for sizing decode buffers
}

// BinaryWriter streams edges into a binary columnar file. Errors are
// latched and reported by Close, mirroring the text spill writer: the
// hot append path stays branch-light.
type BinaryWriter struct {
	f        *os.File
	w        *bufio.Writer
	path     string
	weighted bool

	blockEdges int
	srcs       []int32
	dsts       []int32
	weights    []float64
	scratch    []byte

	off    int64 // file offset of the next block
	edges  int64
	maxID  int32
	index  []blockRef
	closed bool
	err    error
}

// CreateBinary creates (truncating) a binary graph file at path. A
// weighted file stores a float64 weight column per block; Append on a
// weighted writer records weight 1, and AppendWeighted on an unweighted
// writer drops the weight — the same defaulting the text parsers apply.
func CreateBinary(path string, weighted bool) (*BinaryWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("edgeio: %w", err)
	}
	w := &BinaryWriter{
		f:          f,
		w:          bufio.NewWriterSize(f, 1<<16),
		path:       path,
		weighted:   weighted,
		blockEdges: DefaultBlockEdges,
		maxID:      -1,
	}
	var hdr [binaryHeaderSize]byte
	w.encodeHeader(hdr[:])
	if _, err := w.w.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("edgeio: %w", err)
	}
	w.off = binaryHeaderSize
	return w, nil
}

func (w *BinaryWriter) encodeHeader(hdr []byte) {
	copy(hdr, binaryMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], binaryVersion)
	flags := uint16(0)
	if w.weighted {
		flags |= binaryFlagWeight
	}
	binary.LittleEndian.PutUint16(hdr[6:8], flags)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(int64(w.maxID)+1))
}

// SetBlockEdges overrides the edges-per-block (before the first block
// fills). Small blocks are for boundary tests; the default suits disk.
func (w *BinaryWriter) SetBlockEdges(n int) {
	if n < 1 {
		n = 1
	}
	w.blockEdges = n
}

// Append buffers one unweighted edge (weight 1 in a weighted file).
func (w *BinaryWriter) Append(e Edge) {
	w.AppendWeighted(WeightedEdge{U: e.U, V: e.V, Weight: 1})
}

// AppendWeighted buffers one weighted edge (the weight is dropped in an
// unweighted file).
func (w *BinaryWriter) AppendWeighted(e WeightedEdge) {
	if w.err != nil {
		return
	}
	w.srcs = append(w.srcs, e.U)
	w.dsts = append(w.dsts, e.V)
	if w.weighted {
		w.weights = append(w.weights, e.Weight)
	}
	if e.U > w.maxID {
		w.maxID = e.U
	}
	if e.V > w.maxID {
		w.maxID = e.V
	}
	w.edges++
	if len(w.srcs) >= w.blockEdges {
		w.flushBlock()
	}
}

// flushBlock encodes and writes the buffered edges as one block.
func (w *BinaryWriter) flushBlock() {
	if w.err != nil || len(w.srcs) == 0 {
		return
	}
	count := len(w.srcs)
	enc := byte(blockFixed)
	if srcsMonotonic(w.srcs) {
		enc = blockVarint
	}
	w.scratch = w.scratch[:0]
	switch enc {
	case blockVarint:
		var tmp [binary.MaxVarintLen64]byte
		prev := int64(w.srcs[0])
		w.scratch = append(w.scratch, tmp[:binary.PutUvarint(tmp[:], uint64(prev))]...)
		for _, u := range w.srcs[1:] {
			w.scratch = append(w.scratch, tmp[:binary.PutUvarint(tmp[:], uint64(int64(u)-prev))]...)
			prev = int64(u)
		}
		for _, v := range w.dsts {
			w.scratch = append(w.scratch, tmp[:binary.PutUvarint(tmp[:], uint64(uint32(v)))]...)
		}
	default:
		need := count * 8
		if cap(w.scratch) < need {
			w.scratch = make([]byte, 0, need)
		}
		for _, u := range w.srcs {
			w.scratch = binary.LittleEndian.AppendUint32(w.scratch, uint32(u))
		}
		for _, v := range w.dsts {
			w.scratch = binary.LittleEndian.AppendUint32(w.scratch, uint32(v))
		}
	}
	if w.weighted {
		for _, wt := range w.weights {
			w.scratch = binary.LittleEndian.AppendUint64(w.scratch, math.Float64bits(wt))
		}
	}
	var hdr [binaryBlockHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(count))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(w.scratch)))
	hdr[8] = enc
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.err = err
		return
	}
	if _, err := w.w.Write(w.scratch); err != nil {
		w.err = err
		return
	}
	w.index = append(w.index, blockRef{off: w.off, count: count, first: w.edges - int64(count)})
	w.off += int64(binaryBlockHdr + len(w.scratch))
	w.srcs = w.srcs[:0]
	w.dsts = w.dsts[:0]
	w.weights = w.weights[:0]
}

// srcsMonotonic reports whether the src column is non-negative and
// non-decreasing — the precondition of the delta-varint encoding.
func srcsMonotonic(srcs []int32) bool {
	if len(srcs) == 0 || srcs[0] < 0 {
		return false
	}
	for i := 1; i < len(srcs); i++ {
		if srcs[i] < srcs[i-1] {
			return false
		}
	}
	return true
}

// Close flushes the last block, writes the index and trailer, patches
// the header's node count, and closes the file. On any latched error
// the partial file is removed. Close is not idempotent — call it once.
func (w *BinaryWriter) Close() error {
	if w.closed {
		return fmt.Errorf("edgeio: BinaryWriter for %s closed twice", w.path)
	}
	w.closed = true
	w.flushBlock()
	if w.err == nil {
		indexOff := w.off
		var buf [binaryIndexEntry]byte
		for _, b := range w.index {
			binary.LittleEndian.PutUint64(buf[0:8], uint64(b.off))
			binary.LittleEndian.PutUint32(buf[8:12], uint32(b.count))
			if _, err := w.w.Write(buf[:]); err != nil {
				w.err = err
				break
			}
		}
		if w.err == nil {
			var tr [binaryTrailerSize]byte
			binary.LittleEndian.PutUint64(tr[0:8], uint64(indexOff))
			binary.LittleEndian.PutUint64(tr[8:16], uint64(w.edges))
			binary.LittleEndian.PutUint32(tr[16:20], uint32(len(w.index)))
			copy(tr[20:], binaryEndMagic)
			if _, err := w.w.Write(tr[:]); err != nil {
				w.err = err
			}
		}
	}
	if w.err == nil {
		w.err = w.w.Flush()
	}
	if w.err == nil {
		// Patch the final node count into the header.
		var hdr [binaryHeaderSize]byte
		w.encodeHeader(hdr[:])
		if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
			w.err = err
		}
	}
	if cerr := w.f.Close(); w.err == nil {
		w.err = cerr
	}
	if w.err != nil {
		os.Remove(w.path)
		return fmt.Errorf("edgeio: writing %s: %w", w.path, w.err)
	}
	return nil
}

// Edges returns the number of edges appended so far.
func (w *BinaryWriter) Edges() int64 { return w.edges }

// readBinaryMeta validates the header, trailer, and index of an open
// binary file. Every failure names the byte offset it was detected at.
func readBinaryMeta(f *os.File, path string) (*binaryMeta, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("edgeio: %w", err)
	}
	size := st.Size()
	if size < binaryHeaderSize+binaryTrailerSize {
		return nil, fmt.Errorf("edgeio: %s: truncated binary file: %d bytes, need at least %d", path, size, binaryHeaderSize+binaryTrailerSize)
	}
	var hdr [binaryHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("edgeio: %s: reading header at offset 0: %w", path, err)
	}
	if string(hdr[:4]) != binaryMagic {
		return nil, fmt.Errorf("edgeio: %s: bad magic %q at offset 0, want %q", path, hdr[:4], binaryMagic)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != binaryVersion {
		return nil, fmt.Errorf("edgeio: %s: unsupported version %d at offset 4", path, v)
	}
	flags := binary.LittleEndian.Uint16(hdr[6:8])
	if flags&^uint16(binaryFlagWeight) != 0 {
		return nil, fmt.Errorf("edgeio: %s: unknown flags %#x at offset 6", path, flags)
	}
	m := &binaryMeta{
		path:     path,
		size:     size,
		weighted: flags&binaryFlagWeight != 0,
		nodes:    int64(binary.LittleEndian.Uint64(hdr[8:16])),
	}
	if m.nodes < 0 || m.nodes > math.MaxInt32+1 {
		return nil, fmt.Errorf("edgeio: %s: node count %d at offset 8 out of int32 range", path, uint64(m.nodes))
	}
	var tr [binaryTrailerSize]byte
	trOff := size - binaryTrailerSize
	if _, err := f.ReadAt(tr[:], trOff); err != nil {
		return nil, fmt.Errorf("edgeio: %s: reading trailer at offset %d: %w", path, trOff, err)
	}
	if string(tr[20:28]) != binaryEndMagic {
		return nil, fmt.Errorf("edgeio: %s: bad trailer magic %q at offset %d, want %q (truncated file?)", path, tr[20:28], trOff+20, binaryEndMagic)
	}
	indexOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	m.edges = int64(binary.LittleEndian.Uint64(tr[8:16]))
	blocks := int64(binary.LittleEndian.Uint32(tr[16:20]))
	if indexOff < binaryHeaderSize || indexOff > trOff {
		return nil, fmt.Errorf("edgeio: %s: index offset %d at offset %d out of range [%d,%d]", path, indexOff, trOff, binaryHeaderSize, trOff)
	}
	if indexOff+blocks*binaryIndexEntry != trOff {
		return nil, fmt.Errorf("edgeio: %s: index at offset %d with %d blocks does not reach the trailer at %d", path, indexOff, blocks, trOff)
	}
	if m.edges < 0 {
		return nil, fmt.Errorf("edgeio: %s: edge count %d at offset %d out of range", path, uint64(m.edges), trOff+8)
	}
	m.index = make([]blockRef, blocks)
	if blocks > 0 {
		raw := make([]byte, blocks*binaryIndexEntry)
		if _, err := f.ReadAt(raw, indexOff); err != nil {
			return nil, fmt.Errorf("edgeio: %s: reading index at offset %d: %w", path, indexOff, err)
		}
		var total, prevEnd int64 = 0, binaryHeaderSize
		for i := range m.index {
			e := raw[i*binaryIndexEntry:]
			off := int64(binary.LittleEndian.Uint64(e[0:8]))
			count := int64(binary.LittleEndian.Uint32(e[8:12]))
			if off < prevEnd || off >= indexOff {
				return nil, fmt.Errorf("edgeio: %s: index entry %d at offset %d: block offset %d out of range [%d,%d)", path, i, indexOff+int64(i)*binaryIndexEntry, off, prevEnd, indexOff)
			}
			if count < 1 {
				return nil, fmt.Errorf("edgeio: %s: index entry %d at offset %d: empty block", path, i, indexOff+int64(i)*binaryIndexEntry)
			}
			m.index[i] = blockRef{off: off, count: int(count), first: total}
			if int(count) > m.maxCount {
				m.maxCount = int(count)
			}
			total += count
			prevEnd = off + binaryBlockHdr
		}
		// The smallest encoding spends one varint byte per id (plus the
		// weight column), so a count the block's extent cannot hold is
		// rejected here, before any reader sizes a buffer by it.
		minBytes := int64(2)
		if m.weighted {
			minBytes += 8
		}
		for i, ref := range m.index {
			if extent := m.blockEnd(i) - ref.off - binaryBlockHdr; int64(ref.count)*minBytes > extent {
				return nil, fmt.Errorf("edgeio: %s: index entry %d at offset %d: %d edges cannot fit in block %d's %d payload bytes", path, i, indexOff+int64(i)*binaryIndexEntry, ref.count, i, max(extent, 0))
			}
		}
		if total != m.edges {
			return nil, fmt.Errorf("edgeio: %s: index counts sum to %d, trailer says %d edges", path, total, m.edges)
		}
	} else if m.edges != 0 {
		return nil, fmt.Errorf("edgeio: %s: trailer says %d edges but 0 blocks", path, m.edges)
	}
	return m, nil
}

// blockEnd returns the file offset one past block i's payload (the next
// block's header, or the index for the last block).
func (m *binaryMeta) blockEnd(i int) int64 {
	if i+1 < len(m.index) {
		return m.index[i+1].off
	}
	return m.size - binaryTrailerSize - int64(len(m.index))*binaryIndexEntry
}

// decodeBlock decodes one raw block (header + payload, as laid out on
// disk at offset off) into the caller's edge and weight buffers, which
// must have capacity for the block's edge count. weights is ignored
// for unweighted files and may be nil to skip the weight column. All
// reads are bounds-checked; errors carry the file offset.
func (m *binaryMeta) decodeBlock(i int, raw []byte, edges []Edge, weights []float64) ([]Edge, []float64, error) {
	ref := m.index[i]
	if len(raw) < binaryBlockHdr {
		return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: %d bytes, need %d for the header", m.path, i, ref.off, len(raw), binaryBlockHdr)
	}
	count := int(binary.LittleEndian.Uint32(raw[0:4]))
	payloadLen := int(binary.LittleEndian.Uint32(raw[4:8]))
	enc := raw[8]
	if count != ref.count {
		return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: header says %d edges, index says %d", m.path, i, ref.off, count, ref.count)
	}
	payload := raw[binaryBlockHdr:]
	if payloadLen != len(payload) {
		return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: payload length %d does not match the block extent %d", m.path, i, ref.off, payloadLen, len(payload))
	}
	edges = edges[:count]
	weightBytes := 0
	if m.weighted {
		weightBytes = count * 8
	}
	switch enc {
	case blockFixed:
		if len(payload) != count*8+weightBytes {
			return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: fixed payload of %d bytes, want %d", m.path, i, ref.off, len(payload), count*8+weightBytes)
		}
		src := payload[:count*4]
		dst := payload[count*4 : count*8]
		for j := 0; j < count; j++ {
			edges[j] = Edge{
				U: int32(binary.LittleEndian.Uint32(src[j*4:])),
				V: int32(binary.LittleEndian.Uint32(dst[j*4:])),
			}
		}
		payload = payload[count*8:]
	case blockVarint:
		cols := payload
		if weightBytes > 0 {
			if len(cols) < weightBytes {
				return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: varint payload of %d bytes, need %d for the weight column", m.path, i, ref.off, len(cols), weightBytes)
			}
			cols = cols[:len(cols)-weightBytes]
		}
		pos := 0
		prev := int64(0)
		for j := 0; j < count; j++ {
			d, n := binary.Uvarint(cols[pos:])
			if n <= 0 {
				return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: bad src varint at payload byte %d", m.path, i, ref.off, pos)
			}
			pos += n
			if j == 0 {
				prev = int64(d)
			} else {
				prev += int64(d)
			}
			if prev < 0 || prev > math.MaxInt32 {
				return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: src id %d out of int32 range", m.path, i, ref.off, prev)
			}
			edges[j].U = int32(prev)
		}
		for j := 0; j < count; j++ {
			d, n := binary.Uvarint(cols[pos:])
			if n <= 0 {
				return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: bad dst varint at payload byte %d", m.path, i, ref.off, pos)
			}
			pos += n
			if d > math.MaxUint32 {
				return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: dst id %d out of range", m.path, i, ref.off, d)
			}
			edges[j].V = int32(uint32(d))
		}
		if pos != len(cols) {
			return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: %d trailing payload bytes", m.path, i, ref.off, len(cols)-pos)
		}
		payload = payload[len(cols):]
	default:
		return nil, nil, fmt.Errorf("edgeio: %s: block %d at offset %d: unknown encoding %d", m.path, i, ref.off, enc)
	}
	if m.weighted && weights != nil {
		weights = weights[:count]
		for j := 0; j < count; j++ {
			weights[j] = math.Float64frombits(binary.LittleEndian.Uint64(payload[j*8:]))
		}
	}
	return edges, weights, nil
}
