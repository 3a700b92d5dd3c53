package graph

// Delta rebuilds: a frozen CSR is the natural checkpoint of a graph that
// changes over time. When the next version differs from the checkpoint
// by a (usually small) set of inserted and deleted edges, re-running
// Builder.Freeze over all m edges pays O(m) scatter work for a Δ-sized
// change. spliceRows merges the delta into the checkpoint instead: it
// sorts the O(Δ) row edits, merges only the touched rows, and moves the
// untouched spans between them by bulk copy.
//
// Bit-parity contract: Freeze scatters every edge into its rows in
// insertion order, then sorts each row by neighbor (stably) and merges
// repeated neighbors, summing their weights left to right. A row of the
// checkpoint is therefore ascending, and its weight for neighbor x is
// the left-to-right sum over the insertions of {u,x} so far. Adding the
// later insertions to that sum one by one, in order, continues the same
// sum, so the spliced graph is reflect.DeepEqual to Builder.Freeze over
// the whole insertion sequence; the peel engines return bit-identical
// results from either construction.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// freezeShare sets where AppendUndirected and AppendDirected stop
// splicing: a batch of more than m/freezeShare edges is frozen together
// with the checkpoint's edges instead. A splice costs one copy of the
// CSR plus a sort and a row search per edit, a freeze a parallel
// counting sort of all m+Δ edges. BenchmarkAppendUndirected (a uniform
// random graph, 100k nodes, 500k edges; 2-core Xeon, -cpu 1,2) puts the
// two even at Δ = m/16, about 25–29 ms each; at m/64 the splice takes
// 7 ms against 25 ms, at m/1024 2–3 ms against 23 ms.
const freezeShare = 16

// rowEdit is one change to one CSR row: insert a neighbor with weight w
// or, with del set, remove it. key packs the row above the neighbor, so
// edits sort by (row, neighbor) on one integer; seq numbers the edits in
// the order they were made.
type rowEdit struct {
	key uint64
	seq int32
	del bool
	w   float64
}

func newEdit(row, nbr int32, seq int, w float64, del bool) rowEdit {
	return rowEdit{key: uint64(row)<<32 | uint64(uint32(nbr)), seq: int32(seq), w: w, del: del}
}

func (e rowEdit) row() int32 { return int32(e.key >> 32) }
func (e rowEdit) nbr() int32 { return int32(uint32(e.key)) }

// sortEdits sorts edits by (row, nbr), keeping the edits of one pair in
// seq order.
func sortEdits(edits []rowEdit) {
	slices.SortFunc(edits, func(a, b rowEdit) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
}

// spliceRows returns the CSR rows over n >= len(offsets)-1 nodes that
// result from applying edits to (offsets, adj, weights); rows past the
// old node count start empty, and weights is nil for unweighted rows.
// edits must be sorted by (row, nbr), the edits of one pair in the order
// they were made. An insert of a neighbor already in the row adds its
// weight to the entry's, left to right; with strict set it is an error
// instead. Deletes come only with strict set, which also requires every
// pair to carry exactly one edit, and must find their neighbor present.
// The inputs are not modified.
func spliceRows(offsets, adj []int32, weights []float64, n int, edits []rowEdit, strict bool) ([]int32, []int32, []float64, error) {
	n0 := len(offsets) - 1
	inserts := 0
	for _, e := range edits {
		if !e.del {
			inserts++
		}
	}
	if len(adj)+inserts > math.MaxInt32 {
		return nil, nil, nil, fmt.Errorf("graph: %d adjacency entries overflow the int32 CSR", len(adj)+inserts)
	}
	oldOff := func(u int) int32 { return offsets[min(u, n0)] }
	outOff := make([]int32, n+1)
	out := make([]int32, len(adj)+inserts)
	var outW []float64
	if weights != nil {
		outW = make([]float64, len(out))
	}
	var cur int32
	// move copies rows [lo, hi) unchanged to the cursor.
	move := func(lo, hi int) {
		a, b := oldOff(lo), oldOff(hi)
		shift := cur - a
		for u, off := range offsets[min(lo, n0):min(hi, n0)] {
			outOff[lo+u] = off + shift
		}
		for u := max(lo, n0); u < hi; u++ {
			outOff[u] = cur + b - a // rows past n0 are empty
		}
		copy(out[cur:], adj[a:b])
		if outW != nil {
			copy(outW[cur:], weights[a:b])
		}
		cur += b - a
	}
	next := 0 // first row not yet written
	for i := 0; i < len(edits); {
		r := int(edits[i].row())
		j := i + 1
		for j < len(edits) && int(edits[j].row()) == r {
			j++
		}
		move(next, r)
		outOff[r] = cur
		lo, hi := oldOff(r), oldOff(r+1)
		var oldW []float64
		if weights != nil {
			oldW = weights[lo:hi]
		}
		var err error
		if cur, err = mergeRow(out, outW, cur, adj[lo:hi], oldW, int32(r), edits[i:j], strict); err != nil {
			return nil, nil, nil, err
		}
		next, i = r+1, j
	}
	move(next, n)
	outOff[n] = cur
	if outW != nil {
		outW = outW[:cur]
	}
	return outOff, out[:cur], outW, nil
}

// mergeRow writes row r — the ascending old row with the row's edits
// applied — to out from position cur and returns the position after it.
// A run of old entries between two edited neighbors moves by one copy.
func mergeRow(out []int32, outW []float64, cur int32, old []int32, oldW []float64, r int32, edits []rowEdit, strict bool) (int32, error) {
	i := 0 // next old entry
	keep := func(hi int) {
		copy(out[cur:], old[i:hi])
		if outW != nil {
			copy(outW[cur:], oldW[i:hi])
		}
		cur += int32(hi - i)
		i = hi
	}
	for k := 0; k < len(edits); {
		key, nbr := edits[k].key, edits[k].nbr()
		l := k + 1
		for l < len(edits) && edits[l].key == key {
			l++
		}
		pair := edits[k:l]
		k = l
		pos, found := slices.BinarySearch(old[i:], nbr)
		keep(i + pos)
		switch {
		case strict && len(pair) > 1:
			return 0, fmt.Errorf("graph: edge {%d,%d} edited %d times in one delta", r, nbr, len(pair))
		case pair[0].del && !found:
			return 0, fmt.Errorf("graph: del edge {%d,%d} not present", r, nbr)
		case pair[0].del:
			i++
			continue
		case strict && found:
			return 0, fmt.Errorf("graph: add edge {%d,%d} already present", r, nbr)
		}
		var w float64
		if found {
			if oldW != nil {
				w = oldW[i]
			}
			i++
		} else {
			w, pair = pair[0].w, pair[1:]
		}
		for _, e := range pair {
			w += e.w
		}
		out[cur] = nbr
		if outW != nil {
			outW[cur] = w
		}
		cur++
	}
	keep(len(old))
	return cur, nil
}

// ApplyDelta returns the graph obtained from g by inserting the edges
// of add and removing the edges of del, on the same node set. Both
// slices must be strictly (U,V)-sorted with U < V and duplicate-free;
// add edges must be absent from g, del edges present, and no edge may
// be in both. Only unweighted graphs are supported (the dynamic edge
// log tracks multiplicities itself and presents a distinct edge set).
// g is not modified.
func (g *Undirected) ApplyDelta(add, del []Edge) (*Undirected, error) {
	if g.weights != nil {
		return nil, fmt.Errorf("graph: ApplyDelta supports unweighted graphs only")
	}
	if err := checkDelta(g.n, add); err != nil {
		return nil, fmt.Errorf("graph: ApplyDelta add: %w", err)
	}
	if err := checkDelta(g.n, del); err != nil {
		return nil, fmt.Errorf("graph: ApplyDelta del: %w", err)
	}
	edits := make([]rowEdit, 0, 2*(len(add)+len(del)))
	for _, set := range []struct {
		edges []Edge
		del   bool
	}{{add, false}, {del, true}} {
		for _, e := range set.edges {
			edits = append(edits, newEdit(e.U, e.V, 0, 0, set.del), newEdit(e.V, e.U, 0, 0, set.del))
		}
	}
	sortEdits(edits)
	offsets, adj, _, err := spliceRows(g.offsets, g.adj, nil, g.n, edits, true)
	if err != nil {
		return nil, fmt.Errorf("graph: ApplyDelta: %w", err)
	}
	m := int64(len(adj) / 2)
	return &Undirected{n: g.n, offsets: offsets, adj: adj, m: m, totalW: float64(m)}, nil
}

// AppendUndirected returns the graph Builder.Freeze builds on n nodes
// from g's insertion sequence followed by batch: parallel edges merge,
// and weighted repeats sum in insertion order. Batch edges are added as
// AddWeightedEdge adds them when weighted is set and as AddEdge does
// otherwise, so the result is weighted if g is or if a weighted batch is
// not empty. A nil g stands for the empty graph, and n must be at least
// g's node count. A batch of up to 1/freezeShare of g's edges is spliced
// into a copy of g's rows; a larger one is frozen together with g's
// edges. An empty batch on unchanged n returns g itself: frozen graphs
// are immutable. g is not modified.
func AppendUndirected(g *Undirected, batch []Edge, n int, weighted bool) (*Undirected, error) {
	if g == nil {
		g = &Undirected{offsets: []int32{0}}
	}
	if err := checkBatch(g.n, n, batch, weighted); err != nil {
		return nil, err
	}
	switch {
	case len(batch) == 0 && n == g.n:
		return g, nil
	case int64(len(batch))*freezeShare > g.m:
		return refreezeUndirected(g, batch, n, weighted)
	}
	return spliceUndirected(g, batch, n, weighted)
}

// batchWeight is the weight a batch edge is added with.
func batchWeight(e Edge, weighted bool) float64 {
	if weighted {
		return e.Weight
	}
	return 1
}

// spliceUndirected is AppendUndirected by spliceRows.
func spliceUndirected(g *Undirected, batch []Edge, n int, weighted bool) (*Undirected, error) {
	edits := make([]rowEdit, 0, 2*len(batch))
	for i, e := range batch {
		w := batchWeight(e, weighted)
		edits = append(edits, newEdit(e.U, e.V, i, w, false), newEdit(e.V, e.U, i, w, false))
	}
	sortEdits(edits)
	weights := g.weights
	if weights == nil && weighted && len(batch) > 0 {
		weights = make([]float64, len(g.adj)) // g's edges were added by AddEdge
		for i := range weights {
			weights[i] = 1
		}
	}
	offsets, adj, outW, err := spliceRows(g.offsets, g.adj, weights, n, edits, false)
	if err != nil {
		return nil, err
	}
	out := &Undirected{n: n, offsets: offsets, adj: adj, weights: outW, m: int64(len(adj) / 2)}
	out.totalW = out.weightSum()
	return out, nil
}

// refreezeUndirected is AppendUndirected by a Freeze of g's merged edges
// followed by batch. A merged weight is the insertion-order sum of its
// parallel edges so far, which later repeats continue, so this is the
// Freeze of the whole insertion sequence too.
func refreezeUndirected(g *Undirected, batch []Edge, n int, weighted bool) (*Undirected, error) {
	edges := make([]Edge, 0, int(g.m)+len(batch))
	g.Edges(func(u, v int32, w float64) bool {
		edges = append(edges, Edge{U: u, V: v, Weight: w})
		return true
	})
	for _, e := range batch {
		edges = append(edges, Edge{U: e.U, V: e.V, Weight: batchWeight(e, weighted)})
	}
	return newUndirected(n, segments(edges), g.weights != nil || (weighted && len(batch) > 0))
}

// AppendDirected is AppendUndirected for directed graphs, which carry no
// weights; the out rows and the in rows are spliced alike.
func AppendDirected(g *Directed, batch []Edge, n int) (*Directed, error) {
	if g == nil {
		g = &Directed{outOffsets: []int32{0}, inOffsets: []int32{0}}
	}
	if err := checkBatch(g.n, n, batch, false); err != nil {
		return nil, err
	}
	switch {
	case len(batch) == 0 && n == g.n:
		return g, nil
	case int64(len(batch))*freezeShare > g.m:
		return refreezeDirected(g, batch, n)
	}
	return spliceDirected(g, batch, n)
}

// spliceDirected is AppendDirected by spliceRows.
func spliceDirected(g *Directed, batch []Edge, n int) (*Directed, error) {
	outEdits := make([]rowEdit, len(batch))
	inEdits := make([]rowEdit, len(batch))
	for i, e := range batch {
		outEdits[i] = newEdit(e.U, e.V, i, 0, false)
		inEdits[i] = newEdit(e.V, e.U, i, 0, false)
	}
	sortEdits(outEdits)
	sortEdits(inEdits)
	out := &Directed{n: n}
	var err error
	if out.outOffsets, out.outAdj, _, err = spliceRows(g.outOffsets, g.outAdj, nil, n, outEdits, false); err != nil {
		return nil, err
	}
	if out.inOffsets, out.inAdj, _, err = spliceRows(g.inOffsets, g.inAdj, nil, n, inEdits, false); err != nil {
		return nil, err
	}
	out.m = int64(len(out.outAdj))
	return out, nil
}

// refreezeDirected is AppendDirected by a Freeze of g's edges followed
// by batch.
func refreezeDirected(g *Directed, batch []Edge, n int) (*Directed, error) {
	edges := make([]Edge, 0, int(g.m)+len(batch))
	g.Edges(func(u, v int32) bool {
		edges = append(edges, Edge{U: u, V: v})
		return true
	})
	return newDirected(n, segments(append(edges, batch...)))
}

// checkBatch validates a batch appended to a graph of n0 nodes, grown to
// n, as the builders' AddEdge and AddWeightedEdge validate edges.
func checkBatch(n0, n int, batch []Edge, weighted bool) error {
	if n < n0 {
		return fmt.Errorf("graph: appending to %d nodes shrinks a graph of %d", n, n0)
	}
	for i, e := range batch {
		if err := checkEdge(n, e.U, e.V, batchWeight(e, weighted)); err != nil {
			return fmt.Errorf("edge %d: %w", i, err)
		}
	}
	return nil
}

// checkDelta validates one delta list: in-range ids, U < V, strictly
// (U,V)-ascending (which also rules out duplicates).
func checkDelta(n int, edges []Edge) error {
	for i, e := range edges {
		if err := checkEdge(n, e.U, e.V, 1); err != nil {
			return err
		}
		if e.U > e.V {
			return fmt.Errorf("edge %d (%d,%d) not normalized to U < V", i, e.U, e.V)
		}
		if i > 0 {
			p := edges[i-1]
			if e.U < p.U || (e.U == p.U && e.V <= p.V) {
				return fmt.Errorf("edge %d (%d,%d) not strictly (U,V)-sorted after (%d,%d)", i, e.U, e.V, p.U, p.V)
			}
		}
	}
	return nil
}
