package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"densestream/internal/par"
)

// Builder accumulates undirected edges and freezes them into an Undirected
// graph. It tolerates parallel edges (merged, weights summed) and edges
// inserted in any order. A Builder must not be used after Freeze.
type Builder struct {
	n        int
	edges    []Edge
	weighted bool
	frozen   bool
}

// NewBuilder returns a builder for an undirected graph on n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// NumNodes returns the node count the builder was created with.
func (b *Builder) NumNodes() int { return b.n }

// AddEdge inserts the unweighted edge {u, v}.
func (b *Builder) AddEdge(u, v int32) error {
	return b.addEdge(u, v, 1, false)
}

// AddWeightedEdge inserts the edge {u, v} with weight w > 0. A graph that
// receives at least one weighted edge freezes as a weighted graph.
func (b *Builder) AddWeightedEdge(u, v int32, w float64) error {
	return b.addEdge(u, v, w, true)
}

func (b *Builder) addEdge(u, v int32, w float64, weighted bool) error {
	if b.frozen {
		return fmt.Errorf("graph: AddEdge after Freeze")
	}
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrNodeRange, u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("%w: node %d", ErrSelfLoop, u)
	}
	if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
		return fmt.Errorf("%w: %v", ErrBadWeight, w)
	}
	b.edges = append(b.edges, Edge{U: u, V: v, Weight: w})
	b.weighted = b.weighted || weighted
	return nil
}

// Freeze merges parallel edges and returns the immutable graph.
// Parallel-edge weights are summed in insertion order.
func (b *Builder) Freeze() (*Undirected, error) {
	if b.frozen {
		return nil, fmt.Errorf("graph: Freeze called twice")
	}
	b.frozen = true
	g := &Undirected{n: b.n}
	var err error
	g.offsets, g.adj, g.weights, err = csrRows(b.n, b.edges, true, true, b.weighted)
	b.edges = nil
	if err != nil {
		return nil, err
	}
	g.m = int64(len(g.adj) / 2)
	g.totalW = float64(g.m)
	if g.weights != nil {
		g.totalW = 0
		g.Edges(func(_, _ int32, w float64) bool {
			g.totalW += w
			return true
		})
	}
	return g, nil
}

// csrRows builds CSR rows over n nodes from edges by counting sort: a
// row-length histogram, a prefix sum, and one scatter in insertion
// order, after which packRows sorts and merges each row. With out set,
// edge (u, v) puts v in row u; with in set, it puts u in row v.
func csrRows(n int, edges []Edge, out, in, weighted bool) ([]int32, []int32, []float64, error) {
	if 2*len(edges) > math.MaxInt32 {
		return nil, nil, nil, fmt.Errorf("graph: %d edges overflow the int32 CSR", len(edges))
	}
	offsets := make([]int32, n+1)
	for _, e := range edges {
		if out {
			offsets[e.U+1]++
		}
		if in {
			offsets[e.V+1]++
		}
	}
	rowStarts(offsets)
	adj := make([]int32, offsets[n])
	var weights []float64
	if weighted {
		weights = make([]float64, len(adj))
	}
	cursor := slices.Clone(offsets[:n])
	put := func(row, nbr int32, w float64) {
		c := cursor[row]
		adj[c] = nbr
		if weights != nil {
			weights[c] = w
		}
		cursor[row] = c + 1
	}
	for _, e := range edges {
		if out {
			put(e.U, e.V, e.Weight)
		}
		if in {
			put(e.V, e.U, e.Weight)
		}
	}
	offsets, adj, weights = packRows(offsets, adj, weights)
	return offsets, adj, weights, nil
}

// rowStarts turns per-row counts stored at offsets[u+1] into CSR row
// starts by an in-place prefix sum.
func rowStarts(offsets []int32) {
	for i := 1; i < len(offsets); i++ {
		offsets[i] += offsets[i-1]
	}
}

// packRows sorts every CSR row by neighbor, merges repeated neighbors
// (summing their weights left to right in row order) and compacts the
// rows. Weighted rows sort stably, so a row that was scattered in
// insertion order sums its parallel edges in insertion order. Rows are
// independent and chunked on internal/par, so the result is the same
// for every worker count. Inputs without repeats are returned as they
// are.
func packRows(offsets, adj []int32, weights []float64) ([]int32, []int32, []float64) {
	n := len(offsets) - 1
	pool := par.Acquire(0)
	defer pool.Release()
	packed := make([]int32, n+1)
	pool.ForChunks(n, func(_, lo, hi int) {
		var byNbr *rowByNeighbor // one per chunk, weighted rows only
		if weights != nil {
			byNbr = new(rowByNeighbor)
		}
		for u := lo; u < hi; u++ {
			row := adj[offsets[u]:offsets[u+1]]
			if weights == nil {
				slices.Sort(row)
				packed[u+1] = int32(len(slices.Compact(row)))
				continue
			}
			byNbr.adj, byNbr.w = row, weights[offsets[u]:offsets[u+1]]
			sort.Stable(byNbr)
			k := 0
			for i, v := range row {
				if k > 0 && row[k-1] == v {
					byNbr.w[k-1] += byNbr.w[i]
					continue
				}
				row[k], byNbr.w[k] = v, byNbr.w[i]
				k++
			}
			packed[u+1] = int32(k)
		}
	})
	rowStarts(packed)
	if int(packed[n]) == len(adj) {
		return offsets, adj, weights
	}
	out := make([]int32, packed[n])
	var outW []float64
	if weights != nil {
		outW = make([]float64, packed[n])
	}
	pool.ForChunks(n, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			src := offsets[u]
			copy(out[packed[u]:packed[u+1]], adj[src:])
			if weights != nil {
				copy(outW[packed[u]:packed[u+1]], weights[src:])
			}
		}
	})
	return packed, out, outW
}

// rowByNeighbor sorts one weighted CSR row by neighbor id.
type rowByNeighbor struct {
	adj []int32
	w   []float64
}

func (r *rowByNeighbor) Len() int           { return len(r.adj) }
func (r *rowByNeighbor) Less(i, j int) bool { return r.adj[i] < r.adj[j] }
func (r *rowByNeighbor) Swap(i, j int) {
	r.adj[i], r.adj[j] = r.adj[j], r.adj[i]
	r.w[i], r.w[j] = r.w[j], r.w[i]
}

// FromEdges is a convenience constructor for tests and examples: it builds
// an unweighted undirected graph on n nodes from the given edge pairs.
func FromEdges(n int, edges [][2]int32) (*Undirected, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Freeze()
}

// MustFromEdges is FromEdges that panics on error; for tests only.
func MustFromEdges(n int, edges [][2]int32) *Undirected {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}
