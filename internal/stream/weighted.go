package stream

import (
	"fmt"
	"io"
	"math"

	"densestream/internal/core"
	"densestream/internal/edgeio"
	"densestream/internal/graph"
)

// WeightedEdge is one streamed weighted edge (the edgeio record type,
// shared with the out-of-core I/O layer).
type WeightedEdge = edgeio.WeightedEdge

// WeightedEdgeStream is the weighted analogue of EdgeStream, used by the
// weighted variant of Algorithm 1 (the paper notes the algorithm and
// analysis "easily generalize" to weighted graphs; the Lemma 6 lower
// bound instance needs them).
type WeightedEdgeStream interface {
	NumNodes() int
	Reset() error
	Next() (WeightedEdge, error)
}

// WeightedSliceStream streams a fixed slice of weighted edges.
type WeightedSliceStream struct {
	n     int
	edges []WeightedEdge
	pos   int
}

// NewWeightedSliceStream returns a stream over weighted edges on n nodes.
func NewWeightedSliceStream(n int, edges []WeightedEdge) (*WeightedSliceStream, error) {
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("%w: edge (%d,%d) with n=%d", graph.ErrNodeRange, e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("%w: node %d", graph.ErrSelfLoop, e.U)
		}
		if e.Weight <= 0 || math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
			return nil, fmt.Errorf("%w: %v", graph.ErrBadWeight, e.Weight)
		}
	}
	return &WeightedSliceStream{n: n, edges: edges}, nil
}

// ShardedWeightedStream is the weighted analogue of ShardedStream:
// WeightedShards(k) returns at most k streams that together yield
// exactly the edges of one full scan, each safe to drive from its own
// goroutine. The decomposition must depend only on the data and k —
// never on the worker count — because the weighted peelers fold
// per-shard float partials in shard order and promise bit-identical
// results for every worker count.
type ShardedWeightedStream interface {
	WeightedEdgeStream
	WeightedShards(k int) []WeightedEdgeStream
}

// NumNodes implements WeightedEdgeStream.
func (s *WeightedSliceStream) NumNodes() int { return s.n }

// WeightedShards implements ShardedWeightedStream via the edgeio
// resident source.
func (s *WeightedSliceStream) WeightedShards(k int) []WeightedEdgeStream {
	src := edgeio.WeightedSliceSource{Edges: s.edges}
	readers := src.WeightedShards(k)
	out := make([]WeightedEdgeStream, len(readers))
	for i, r := range readers {
		out[i] = &weightedReaderStream{n: s.n, r: r}
	}
	return out
}

// Reset implements WeightedEdgeStream.
func (s *WeightedSliceStream) Reset() error { s.pos = 0; return nil }

// Next implements WeightedEdgeStream.
func (s *WeightedSliceStream) Next() (WeightedEdge, error) {
	if s.pos >= len(s.edges) {
		return WeightedEdge{}, io.EOF
	}
	e := s.edges[s.pos]
	s.pos++
	return e, nil
}

// FromUndirectedWeighted adapts a frozen graph (weighted or not) into a
// weighted edge stream.
func FromUndirectedWeighted(g *graph.Undirected) *WeightedSliceStream {
	edges := make([]WeightedEdge, 0, g.NumEdges())
	g.Edges(func(u, v int32, w float64) bool {
		edges = append(edges, WeightedEdge{U: u, V: v, Weight: w})
		return true
	})
	return &WeightedSliceStream{n: g.NumNodes(), edges: edges}
}

// UndirectedWeighted runs the weighted Algorithm 1 against a weighted
// edge stream with O(n) state (one float64 weighted-degree accumulator
// per node). With unit weights it matches Undirected; in general it
// matches core.UndirectedWeighted on the same graph.
func UndirectedWeighted(es WeightedEdgeStream, eps float64) (*core.Result, error) {
	return UndirectedWeightedOpts(es, eps, core.Opts{})
}

// UndirectedWeightedOpts is UndirectedWeighted with an execution
// configuration: o.Ctx and o.Progress interrupt the run between passes
// (and mid-scan) with a core.PartialError. The scan is sequential and
// o.Workers is ignored: this is the engine UndirectedWeightedParallelOpts
// falls back to for workers==1 and for streams that cannot shard.
func UndirectedWeightedOpts(es WeightedEdgeStream, eps float64, o core.Opts) (*core.Result, error) {
	if eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("stream: epsilon must be a finite value >= 0, got %v", eps)
	}
	if err := o.Begin(); err != nil {
		return nil, err
	}
	n := es.NumNodes()
	if n == 0 {
		return nil, graph.ErrEmptyGraph
	}

	alive := make([]bool, n)
	for u := range alive {
		alive[u] = true
	}
	wdeg := make([]float64, n)
	removedAt := make([]int, n)
	nodes := n

	bestPass := 0
	bestDensity := -1.0
	var trace []core.PassStat

	threshold := 2 * (1 + eps)
	pass := 0
	prev := core.PassStat{Nodes: n}
	for nodes > 0 {
		if err := o.Checkpoint(prev); err != nil {
			return nil, &core.PartialError{Passes: pass, Trace: trace, Err: err}
		}
		pass++
		for i := range wdeg {
			wdeg[i] = 0
		}
		if err := es.Reset(); err != nil {
			return nil, fmt.Errorf("stream: pass %d: %w", pass, err)
		}
		var weight float64
		var edges int64
		var scanned int64
		for {
			e, err := es.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("stream: pass %d: %w", pass, err)
			}
			if err := pollCtx(o.Ctx, scanned); err != nil {
				return nil, &core.PartialError{Passes: pass - 1, Trace: trace, Err: err}
			}
			scanned++
			if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
				return nil, fmt.Errorf("%w: edge (%d,%d) with n=%d", graph.ErrNodeRange, e.U, e.V, n)
			}
			if alive[e.U] && alive[e.V] {
				wdeg[e.U] += e.Weight
				wdeg[e.V] += e.Weight
				weight += e.Weight
				edges++
			}
		}
		rho := weight / float64(nodes)
		if rho > bestDensity {
			bestDensity = rho
			bestPass = pass
		}
		cut := threshold*rho + 1e-12
		removed := 0
		for u := 0; u < n; u++ {
			if alive[u] && wdeg[u] <= cut {
				alive[u] = false
				removedAt[u] = pass
				removed++
			}
		}
		if removed == 0 {
			return nil, fmt.Errorf("stream: weighted pass %d removed no nodes (ρ=%v)", pass, rho)
		}
		st := core.PassStat{
			Pass: pass, Nodes: nodes, Edges: edges, Density: rho, Removed: removed,
		}
		trace = append(trace, st)
		prev = st
		nodes -= removed
	}

	var set []int32
	for u, p := range removedAt {
		if p == 0 || p >= bestPass {
			set = append(set, int32(u))
		}
	}
	return &core.Result{Set: set, Density: bestDensity, Passes: pass, Trace: trace}, nil
}
