package stream

import (
	"context"
	"fmt"
	"io"
	"math"

	"densestream/internal/core"
	"densestream/internal/graph"
)

// Undirected runs Algorithm 1 against an edge stream using only O(n)
// node state plus the degree counter: one scan per pass computes induced
// degrees and the edge count of the surviving subgraph, then nodes at or
// below the 2(1+ε)ρ(S) threshold are dropped.
//
// With an ExactCounter the result is identical to core.Undirected on the
// same graph (the in-memory implementation is the reference; tests assert
// exact agreement). With a sketch counter the result is the §5.1
// heuristic. Each Trace entry records the subgraph as scanned at the
// START of the pass, since a streaming pass cannot know the post-removal
// edge count until the next scan.
func Undirected(es EdgeStream, eps float64, counter DegreeCounter) (*core.Result, error) {
	return UndirectedOpts(es, eps, counter, core.Opts{})
}

// scanCheckMask throttles the context poll inside sequential edge
// scans: one Ctx.Err() load every scanCheckMask+1 edges, so even a
// pass over a giant on-disk stream notices cancellation promptly.
const scanCheckMask = 1<<16 - 1

// pollCtx reports ctx's error once every scanCheckMask+1 calls (as
// counted by scanned); a nil ctx never reports. Every sequential edge
// scan calls it once per edge so cancellation lands mid-pass.
func pollCtx(ctx context.Context, scanned int64) error {
	if scanned&scanCheckMask == 0 && ctx != nil {
		return ctx.Err()
	}
	return nil
}

// UndirectedOpts is Undirected with an execution configuration: o.Ctx
// and o.Progress interrupt the run between passes (and, for the edge
// scan, mid-pass) with a core.PartialError; o.Workers is ignored here —
// use UndirectedParallel for sharded scans.
func UndirectedOpts(es EdgeStream, eps float64, counter DegreeCounter, o core.Opts) (*core.Result, error) {
	if eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("stream: epsilon must be a finite value >= 0, got %v", eps)
	}
	if counter == nil {
		return nil, fmt.Errorf("stream: nil degree counter")
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
		counter.Reset()
		if err := es.Reset(); err != nil {
			return nil, fmt.Errorf("stream: pass %d: %w", pass, err)
		}
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
				counter.Add(e.U)
				counter.Add(e.V)
				edges++
			}
		}
		rho := float64(edges) / float64(nodes)
		// ρ of the current subgraph is the post-removal density of the
		// previous pass — exactly what Algorithm 1 compares for S̃.
		if rho > bestDensity {
			bestDensity = rho
			bestPass = pass
		}
		cut := threshold * rho
		removed := 0
		for u := 0; u < n; u++ {
			if alive[u] && float64(counter.Estimate(int32(u))) <= cut {
				alive[u] = false
				removedAt[u] = pass
				removed++
			}
		}
		if removed == 0 {
			// Only possible when the counter overestimates every low
			// degree node past the cut (sketch collision noise; an exact
			// counter can never get here since min degree ≤ 2ρ). Keep the
			// geometric pass bound by falling back to the Algorithm 2
			// rule: drop the ε/(1+ε) fraction (at least one node) with
			// the smallest estimates.
			var cand []atLeastKCand
			cand, removed = selectAtLeastK(nil, n, nodes, eps/(1+eps), cut, alive, counter.Estimate)
			for _, c := range cand[:removed] {
				alive[c.u] = false
				removedAt[c.u] = pass
			}
		}
		st := core.PassStat{
			Pass: pass, Nodes: nodes, Edges: edges, Density: rho, Removed: removed,
		}
		trace = append(trace, st)
		prev = st
		nodes -= removed
	}

	// Survivors strictly after bestPass removals form S̃ (the set whose
	// density was measured at the start of bestPass).
	var set []int32
	for u, p := range removedAt {
		if p == 0 || p >= bestPass {
			set = append(set, int32(u))
		}
	}
	return &core.Result{Set: set, Density: bestDensity, Passes: pass, Trace: trace}, nil
}

// Directed runs Algorithm 3 against a directed edge stream with O(n)
// state: two alive sets, out/in degree counters, and |E(S,T)|.
func Directed(es EdgeStream, c, eps float64, out, in DegreeCounter) (*core.DirectedResult, error) {
	return DirectedOpts(es, c, eps, out, in, core.Opts{})
}

// DirectedOpts is Directed with an execution configuration; see
// UndirectedOpts for the cancellation semantics.
func DirectedOpts(es EdgeStream, c, eps float64, out, in DegreeCounter, o core.Opts) (*core.DirectedResult, error) {
	if eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("stream: epsilon must be a finite value >= 0, got %v", eps)
	}
	if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		return nil, fmt.Errorf("stream: c must be a finite value > 0, got %v", c)
	}
	if out == nil || in == nil {
		return nil, fmt.Errorf("stream: nil degree counter")
	}
	if err := o.Begin(); err != nil {
		return nil, err
	}
	n := es.NumNodes()
	if n == 0 {
		return nil, graph.ErrEmptyGraph
	}

	aliveS := make([]bool, n)
	aliveT := make([]bool, n)
	for u := 0; u < n; u++ {
		aliveS[u] = true
		aliveT[u] = true
	}
	removedAtS := make([]int, n)
	removedAtT := make([]int, n)
	sizeS, sizeT := n, n

	bestPass := 0
	bestDensity := -1.0
	var trace []core.DirectedPassStat

	pass := 0
	prev := core.PassStat{Nodes: 2 * n}
	for sizeS > 0 && sizeT > 0 {
		if err := o.Checkpoint(prev); err != nil {
			return nil, &core.PartialError{Passes: pass, DirectedTrace: trace, Err: err}
		}
		pass++
		out.Reset()
		in.Reset()
		if err := es.Reset(); err != nil {
			return nil, fmt.Errorf("stream: pass %d: %w", pass, err)
		}
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
				return nil, &core.PartialError{Passes: pass - 1, DirectedTrace: trace, Err: err}
			}
			scanned++
			if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
				return nil, fmt.Errorf("%w: edge (%d,%d) with n=%d", graph.ErrNodeRange, e.U, e.V, n)
			}
			if aliveS[e.U] && aliveT[e.V] {
				out.Add(e.U)
				in.Add(e.V)
				edges++
			}
		}
		rho := float64(edges) / math.Sqrt(float64(sizeS)*float64(sizeT))
		if rho > bestDensity {
			bestDensity = rho
			bestPass = pass
		}
		stat := core.DirectedPassStat{Pass: pass, Edges: edges, Density: rho}
		if float64(sizeS) >= c*float64(sizeT) {
			cut := (1 + eps) * float64(edges) / float64(sizeS)
			for u := 0; u < n; u++ {
				if aliveS[u] && float64(out.Estimate(int32(u))) <= cut {
					aliveS[u] = false
					removedAtS[u] = pass
					stat.RemovedS++
				}
			}
			if stat.RemovedS == 0 {
				return nil, fmt.Errorf("stream: directed pass %d removed no S nodes", pass)
			}
			sizeS -= stat.RemovedS
			stat.PeeledSide = 'S'
		} else {
			cut := (1 + eps) * float64(edges) / float64(sizeT)
			for v := 0; v < n; v++ {
				if aliveT[v] && float64(in.Estimate(int32(v))) <= cut {
					aliveT[v] = false
					removedAtT[v] = pass
					stat.RemovedT++
				}
			}
			if stat.RemovedT == 0 {
				return nil, fmt.Errorf("stream: directed pass %d removed no T nodes", pass)
			}
			sizeT -= stat.RemovedT
			stat.PeeledSide = 'T'
		}
		stat.SizeS = sizeS
		stat.SizeT = sizeT
		trace = append(trace, stat)
		prev = stat.AsPassStat()
	}

	var setS, setT []int32
	for u := 0; u < n; u++ {
		if removedAtS[u] == 0 || removedAtS[u] >= bestPass {
			setS = append(setS, int32(u))
		}
		if removedAtT[u] == 0 || removedAtT[u] >= bestPass {
			setT = append(setT, int32(u))
		}
	}
	return &core.DirectedResult{S: setS, T: setT, Density: bestDensity, Passes: pass, Trace: trace}, nil
}
