package graph

import (
	"fmt"
	"io"
	"math"

	"densestream/internal/edgeio"
)

// Binary columnar graph files ("BSG1", see internal/edgeio) are the
// second on-disk format of the loaders. Node ids in a binary file are
// already integers, so the loaders relabel them to dense ids through an
// integer remap in first-seen order — the order in which the text
// loader interns the same edge sequence — and never build label
// strings: the returned LabelMap keeps the file ids and renders a
// decimal label only when asked. A text file and its binary conversion
// therefore freeze into bit-identical graphs with identical labels, and
// a BSG1 load costs one decode into a single edge buffer plus one
// counting-sort CSR build.

// readUndirectedBinary loads a binary columnar file into an undirected
// graph. The weight column is consumed only when weighted is true,
// matching ReadUndirectedFile's contract for text files.
func readUndirectedBinary(path string, weighted bool) (*Undirected, *LabelMap, error) {
	edges, lm, err := readBinaryEdges(path, weighted)
	if err != nil {
		return nil, nil, err
	}
	g, err := (&Builder{n: lm.Len(), edges: edges, weighted: weighted}).Freeze()
	if err != nil {
		return nil, nil, err
	}
	return g, lm, nil
}

// readDirectedBinary is readUndirectedBinary for directed graphs.
func readDirectedBinary(path string) (*Directed, *LabelMap, error) {
	edges, lm, err := readBinaryEdges(path, false)
	if err != nil {
		return nil, nil, err
	}
	g, err := (&DirectedBuilder{n: lm.Len(), edges: edges}).Freeze()
	if err != nil {
		return nil, nil, err
	}
	return g, lm, nil
}

// readBinaryEdges decodes a binary file into one edge buffer over dense
// ids, applying every check AddEdge would: ids must be non-negative and
// below the header's node count, self loops are dropped, and weights
// (read only when weighted) must be positive and finite.
func readBinaryEdges(path string, weighted bool) ([]Edge, *LabelMap, error) {
	src, err := edgeio.OpenBinarySource(path)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: %w", err)
	}
	defer src.Close()
	r := src.WeightedShards(1)[0]
	if c, ok := r.(io.Closer); ok {
		defer c.Close()
	}
	if err := r.Reset(); err != nil {
		return nil, nil, fmt.Errorf("graph: %w", err)
	}
	nodes, total := src.Nodes(), src.NumEdges()
	dense := newRemap(nodes, total)
	edges := make([]Edge, 0, total)
	for i := 0; ; i++ {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("graph: %w", err)
		}
		if e.U < 0 || e.V < 0 {
			return nil, nil, fmt.Errorf("graph: %s: edge %d (%d,%d): negative node id", path, i, e.U, e.V)
		}
		if int(e.U) >= nodes || int(e.V) >= nodes {
			return nil, nil, fmt.Errorf("graph: %s: edge %d (%d,%d): %w: header declares %d nodes", path, i, e.U, e.V, ErrNodeRange, nodes)
		}
		if e.U == e.V {
			continue // self loop: ignored by the density model
		}
		w := 1.0
		if weighted {
			if w = e.Weight; !(w > 0) || math.IsInf(w, 0) {
				return nil, nil, fmt.Errorf("graph: %s: edge %d (%d,%d): %w (got %v)", path, i, e.U, e.V, ErrBadWeight, w)
			}
		}
		edges = append(edges, Edge{U: dense.id(e.U), V: dense.id(e.V), Weight: w})
	}
	return edges, &LabelMap{ids: dense.ids}, nil
}

// remap assigns dense ids to a binary file's node ids in first-seen
// order. Files whose header node count is at most 2·edges+1 (every file
// this repository writes) use a slice indexed by file id; a sparser
// header — possibly a hostile one declaring 2^31 nodes for one edge —
// gets a map, so the allocation stays bounded by the edge count.
type remap struct {
	seen   []uint32        // file id → dense id + 1 (0: unseen); dense headers
	sparse map[int32]int32 // file id → dense id; sparse headers
	ids    []int32         // dense id → file id
}

func newRemap(nodes int, edges int64) *remap {
	if int64(nodes) <= 2*edges+1 {
		return &remap{seen: make([]uint32, nodes), ids: make([]int32, 0, nodes)}
	}
	return &remap{sparse: make(map[int32]int32)}
}

// id returns the dense id of file id x, assigning the next one on first
// sight.
func (r *remap) id(x int32) int32 {
	if r.seen != nil {
		if d := r.seen[x]; d != 0 {
			return int32(d - 1)
		}
		r.seen[x] = uint32(len(r.ids)) + 1
	} else {
		if d, ok := r.sparse[x]; ok {
			return d
		}
		r.sparse[x] = int32(len(r.ids))
	}
	r.ids = append(r.ids, x)
	return int32(len(r.ids) - 1)
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
