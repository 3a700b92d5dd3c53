package graph

import (
	"fmt"
	"io"
	"math"
	"math/bits"

	"densestream/internal/edgeio"
	"densestream/internal/par"
)

// Binary columnar graph files ("BSG1", see internal/edgeio) are the
// second on-disk format of the loaders. Node ids in a binary file are
// already integers, so the loaders relabel them to dense ids in
// first-seen order — the order in which the text loader interns the
// same edge sequence — and never build label strings: the returned
// LabelMap keeps the file ids and renders a decimal label only when
// asked. A text file and its binary conversion therefore freeze into
// bit-identical graphs with identical labels.
//
// A BSG1 load runs in three parallel steps over one edge buffer sized
// by the trailer's edge count. The block ranges of the file decode
// concurrently, each straight into its own region of the buffer at the
// record number the block index gives its first edge; relabelRegions
// turns the regions' file ids into dense ids; and csrRows builds the
// CSR from the regions by a stable counting sort. Each step's result
// is independent of the region count, so the graph and labels are the
// same at every worker count.

// readUndirectedBinary loads a binary columnar file into an undirected
// graph. The weight column is consumed only when weighted is true,
// matching ReadUndirectedFile's contract for text files.
func readUndirectedBinary(path string, weighted bool, workers int) (*Undirected, *LabelMap, error) {
	regions, lm, err := readBinaryEdges(path, weighted, workers)
	if err != nil {
		return nil, nil, err
	}
	g, err := newUndirected(lm.Len(), regions, weighted)
	if err != nil {
		return nil, nil, err
	}
	return g, lm, nil
}

// readDirectedBinary is readUndirectedBinary for directed graphs.
func readDirectedBinary(path string, workers int) (*Directed, *LabelMap, error) {
	regions, lm, err := readBinaryEdges(path, false, workers)
	if err != nil {
		return nil, nil, err
	}
	g, err := newDirected(lm.Len(), regions)
	if err != nil {
		return nil, nil, err
	}
	return g, lm, nil
}

// readBinaryEdges decodes a binary file into one region of dense-id
// edges per shard, applying every check AddEdge would: ids must be
// non-negative and below the header's node count, self loops are
// dropped, and weights (read only when weighted) must be positive and
// finite. Of several failing edges, the one with the lowest index is
// reported, as a sequential scan would.
func readBinaryEdges(path string, weighted bool, workers int) ([][]Edge, *LabelMap, error) {
	src, err := edgeio.OpenBinarySource(path)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: %w", err)
	}
	defer src.Close()
	k := par.Clamp(workers)
	readers := src.WeightedShards(k)
	shards := make([]blockShard, len(readers))
	for i, r := range readers {
		shards[i] = r.(blockShard)
	}
	defer func() {
		for _, sh := range shards {
			sh.Close()
		}
	}()
	starts := src.ShardStarts(k)
	edges := make([]Edge, src.NumEdges())
	regions := make([][]Edge, len(shards))
	errs := make([]error, len(shards))
	pool := par.Acquire(workers)
	defer pool.Release()
	pool.RunTasks(len(shards), func(i int) {
		regions[i], errs[i] = decodeRegion(path, shards[i], weighted, src.Nodes(), starts[i], edges[starts[i]:starts[i+1]])
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return regions, &LabelMap{ids: relabelRegions(pool, src.Nodes(), regions)}, nil
}

// blockShard is the block-at-a-time lane of the shards both BSG1
// readers cut.
type blockShard interface {
	Reset() error
	NextBlock() ([]edgeio.Edge, []float64, error)
	Close() error
}

// decodeRegion reads one shard, whose first edge has record number
// first, into out and returns the edges it kept, self loops dropped.
// It stops at the shard's first bad edge.
func decodeRegion(path string, sh blockShard, weighted bool, nodes int, first int64, out []Edge) ([]Edge, error) {
	if err := sh.Reset(); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	k := 0
	for i := first; ; {
		block, weights, err := sh.NextBlock()
		if err == io.EOF {
			return out[:k], nil
		}
		if err != nil {
			return nil, fmt.Errorf("graph: %w", err)
		}
		for j, e := range block {
			if e.U < 0 || e.V < 0 {
				return nil, fmt.Errorf("graph: %s: edge %d (%d,%d): negative node id", path, i+int64(j), e.U, e.V)
			}
			if int(e.U) >= nodes || int(e.V) >= nodes {
				return nil, fmt.Errorf("graph: %s: edge %d (%d,%d): %w: header declares %d nodes", path, i+int64(j), e.U, e.V, ErrNodeRange, nodes)
			}
			if e.U == e.V {
				continue // self loop: ignored by the density model
			}
			w := 1.0
			if weighted && weights != nil {
				if w = weights[j]; !(w > 0) || math.IsInf(w, 0) {
					return nil, fmt.Errorf("graph: %s: edge %d (%d,%d): %w (got %v)", path, i+int64(j), e.U, e.V, ErrBadWeight, w)
				}
			}
			out[k] = Edge{U: e.U, V: e.V, Weight: w}
			k++
		}
		i += int64(len(block))
	}
}

// relabelRegions relabels the edges of regions in place from file ids
// in [0, nodes) to dense ids in first-seen order over the regions taken
// in order — the ids a sequential scan of the edges would assign — and
// returns the file id of every dense id. Both the binary and the
// canonical-text loaders relabel through it.
//
// Every region first marks the ids it holds in its own bitset. One
// short merge then walks the bitsets word by word in region order,
// keeps in each only the ids no earlier region holds, and counts them,
// so region r owns the dense ids after those of regions 0..r-1. Each
// region then numbers the ids it owns in the order it first sees them,
// and a last parallel pass translates every edge.
//
// A header sparser than the edges — possibly a hostile one declaring
// 2^31 nodes for one edge — would make the bitsets and the id table
// outgrow the edges, so it takes a sequential map instead.
func relabelRegions(pool *par.Pool, nodes int, regions [][]Edge) []int32 {
	total := 0
	for _, r := range regions {
		total += len(r)
	}
	if int64(nodes) > 2*int64(total)+1 {
		return relabelSparse(regions)
	}
	words := (nodes + 63) / 64
	bitsets := make([]uint64, words*len(regions))
	own := func(i int) []uint64 { return bitsets[i*words : (i+1)*words] }
	pool.RunTasks(len(regions), func(i int) {
		set := own(i)
		for _, e := range regions[i] {
			set[e.U>>6] |= 1 << (e.U & 63)
			set[e.V>>6] |= 1 << (e.V & 63)
		}
	})
	base := make([]int, len(regions)+1)
	for w := range words {
		var earlier uint64
		for i := range regions {
			set := own(i)
			mine := set[w] &^ earlier
			earlier |= set[w]
			set[w] = mine
			base[i+1] += bits.OnesCount64(mine)
		}
	}
	for i := range regions {
		base[i+1] += base[i]
	}
	dense := make([]int32, nodes)
	ids := make([]int32, base[len(regions)])
	pool.RunTasks(len(regions), func(i int) {
		set, next, end := own(i), int32(base[i]), int32(base[i+1])
		claim := func(x int32) {
			if b := uint64(1) << (x & 63); set[x>>6]&b != 0 {
				set[x>>6] &^= b
				dense[x], ids[next] = next, x
				next++
			}
		}
		for _, e := range regions[i] {
			if next == end {
				return // every id this region owns is numbered
			}
			claim(e.U)
			claim(e.V)
		}
	})
	pool.RunTasks(len(regions), func(i int) {
		r := regions[i]
		for j := range r {
			r[j].U, r[j].V = dense[r[j].U], dense[r[j].V]
		}
	})
	return ids
}

// relabelSparse is relabelRegions through a map, for headers sparser
// than the edges.
func relabelSparse(regions [][]Edge) []int32 {
	dense := make(map[int32]int32)
	var ids []int32
	id := func(x int32) int32 {
		if d, ok := dense[x]; ok {
			return d
		}
		dense[x] = int32(len(ids))
		ids = append(ids, x)
		return int32(len(ids) - 1)
	}
	for _, r := range regions {
		for j := range r {
			r[j].U = id(r[j].U)
			r[j].V = id(r[j].V)
		}
	}
	return ids
}

// WriteUndirectedBinary emits the graph as a binary columnar file at
// path (dense ids; the weight column is present iff the graph is
// weighted). The binary peer of WriteUndirected.
func WriteUndirectedBinary(path string, g *Undirected) error {
	w, err := edgeio.CreateBinary(path, g.Weighted())
	if err != nil {
		return err
	}
	g.Edges(func(u, v int32, wt float64) bool {
		w.AppendWeighted(edgeio.WeightedEdge{U: u, V: v, Weight: wt})
		return true
	})
	return w.Close()
}

// WriteDirectedBinary emits the directed graph as a binary columnar
// file at path. The binary peer of WriteDirected.
func WriteDirectedBinary(path string, g *Directed) error {
	w, err := edgeio.CreateBinary(path, false)
	if err != nil {
		return err
	}
	g.Edges(func(u, v int32) bool {
		w.Append(edgeio.Edge{U: u, V: v})
		return true
	})
	return w.Close()
}
