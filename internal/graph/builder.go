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
	if err := checkEdge(b.n, u, v, w); err != nil {
		return err
	}
	b.edges = append(b.edges, Edge{U: u, V: v, Weight: w})
	b.weighted = b.weighted || weighted
	return nil
}

// checkEdge validates one edge as the builders accept it: ids in
// [0, n), no self loop, a positive finite weight.
func checkEdge(n int, u, v int32, w float64) error {
	if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrNodeRange, u, v, n)
	}
	if u == v {
		return fmt.Errorf("%w: node %d", ErrSelfLoop, u)
	}
	if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
		return fmt.Errorf("%w: %v", ErrBadWeight, w)
	}
	return nil
}

// Freeze merges parallel edges and returns the immutable graph.
// Parallel-edge weights are summed in insertion order.
func (b *Builder) Freeze() (*Undirected, error) {
	if b.frozen {
		return nil, fmt.Errorf("graph: Freeze called twice")
	}
	b.frozen = true
	edges := b.edges
	b.edges = nil
	return newUndirected(b.n, segments(edges), b.weighted)
}

// newUndirected freezes the edges of segs, taken in order as one
// insertion sequence, into an undirected graph on n nodes.
func newUndirected(n int, segs [][]Edge, weighted bool) (*Undirected, error) {
	g := &Undirected{n: n}
	var err error
	if g.offsets, g.adj, g.weights, err = csrRows(n, segs, true, true, weighted); err != nil {
		return nil, err
	}
	g.m = int64(len(g.adj) / 2)
	g.totalW = g.weightSum()
	return g, nil
}

// weightSum is the total edge weight, summed over the edges u < v in
// CSR order; float64(m) for unweighted graphs.
func (g *Undirected) weightSum() float64 {
	if g.weights == nil {
		return float64(g.m)
	}
	var s float64
	g.Edges(func(_, _ int32, w float64) bool {
		s += w
		return true
	})
	return s
}

// minSegment is the fewest edges segments gives a segment of its own,
// so small builds (the many tiny graphs of tests and generators) keep
// one segment and one row histogram.
const minSegment = 1 << 15

// segments cuts edges into up to GOMAXPROCS contiguous segments of
// near-equal length, at least minSegment edges each, for csrRows.
func segments(edges []Edge) [][]Edge {
	k := max(1, min(par.Clamp(0), len(edges)/minSegment))
	segs := make([][]Edge, k)
	for i := range segs {
		segs[i] = edges[len(edges)*i/k : len(edges)*(i+1)/k]
	}
	return segs
}

// csrRows builds CSR rows over n nodes from the edges of segs, taken in
// order as one insertion sequence, by a stable parallel counting sort:
// runs of consecutive segments form up to GOMAXPROCS groups; every group
// counts its row entries in its own histogram; a prefix sum in
// row-major, group-minor order turns each histogram into the group's
// first slot in every row; and the groups scatter in parallel. Every
// row thus holds its entries in insertion order, the result of the
// sequential scatter whatever the segmentation, and packRows then sorts
// and merges each row. The group count also keeps the histograms no
// larger than the adjacency array. With out set, edge (u, v) puts v in
// row u; with in set, it puts u in row v.
func csrRows(n int, segs [][]Edge, out, in, weighted bool) ([]int32, []int32, []float64, error) {
	total := 0
	for _, seg := range segs {
		total += len(seg)
	}
	if 2*total > math.MaxInt32 {
		return nil, nil, nil, fmt.Errorf("graph: %d edges overflow the int32 CSR", total)
	}
	pool := par.Acquire(0)
	defer pool.Release()
	entries := total
	if out && in {
		entries *= 2
	}
	groups := groupRuns(segs, total, min(pool.Workers(), max(1, entries/(n+1))))
	hist := make([][]int32, len(groups))
	pool.RunTasks(len(groups), func(g int) {
		h := make([]int32, n+1) // the spare slot lets packRows reuse hist[0]
		for _, seg := range groups[g] {
			for _, e := range seg {
				if out {
					h[e.U]++
				}
				if in {
					h[e.V]++
				}
			}
		}
		hist[g] = h
	})
	offsets := make([]int32, n+1)
	var next int32
	for u := range n {
		offsets[u] = next
		for _, h := range hist {
			h[u], next = next, next+h[u]
		}
	}
	offsets[n] = next
	adj := make([]int32, next)
	var weights []float64
	if weighted {
		weights = make([]float64, len(adj))
	}
	pool.RunTasks(len(groups), func(g int) {
		cursor := hist[g]
		put := func(row, nbr int32, w float64) {
			c := cursor[row]
			adj[c] = nbr
			if weights != nil {
				weights[c] = w
			}
			cursor[row] = c + 1
		}
		for _, seg := range groups[g] {
			for _, e := range seg {
				if out {
					put(e.U, e.V, e.Weight)
				}
				if in {
					put(e.V, e.U, e.Weight)
				}
			}
		}
	})
	offsets, adj, weights = packRows(pool, offsets, adj, weights, hist[0])
	return offsets, adj, weights, nil
}

// groupRuns cuts segs, holding total edges, into between 1 and k runs
// of consecutive segments with near-equal edge counts.
func groupRuns(segs [][]Edge, total, k int) [][][]Edge {
	groups := make([][][]Edge, 0, k)
	lo, done := 0, 0
	for i, seg := range segs {
		done += len(seg)
		if len(groups) < k-1 && done*k >= total*(len(groups)+1) {
			groups = append(groups, segs[lo:i+1])
			lo = i + 1
		}
	}
	return append(groups, segs[lo:])
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
// are; packed, scratch as long as offsets, becomes the new offsets
// otherwise.
func packRows(pool *par.Pool, offsets, adj []int32, weights []float64, packed []int32) ([]int32, []int32, []float64) {
	n := len(offsets) - 1
	packed[0] = 0
	pool.ForChunks(n, func(_, lo, hi int) {
		var byNbr *rowByNeighbor // one per chunk, weighted rows only
		if weights != nil {
			byNbr = new(rowByNeighbor)
		}
		for u := lo; u < hi; u++ {
			row := adj[offsets[u]:offsets[u+1]]
			if increasing(row) { // sorted without repeats, as sorted input scatters
				packed[u+1] = int32(len(row))
				continue
			}
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

// increasing reports whether row is strictly increasing.
func increasing(row []int32) bool {
	for i := 1; i < len(row); i++ {
		if row[i-1] >= row[i] {
			return false
		}
	}
	return true
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
