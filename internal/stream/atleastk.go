package stream

import (
	"fmt"
	"io"
	"math"
	"sort"

	"densestream/internal/core"
	"densestream/internal/graph"
	"densestream/internal/par"
)

// atLeastKCand is one removal candidate of an AtLeastK pass.
type atLeastKCand struct {
	u   int32
	deg int64
}

// selectAtLeastK implements the Algorithm 2 removal rule shared by the
// sequential and sharded scans (they must never disagree): collect the
// alive nodes at or below cut, clamp the ε/(1+ε) quota to at least one
// node, fall back to all alive nodes when the counter pushed every
// candidate above the cut (sketch noise), and order by (estimate,
// node). buf is reused across passes; the quota prefix of the returned
// slice is what the pass removes.
func selectAtLeastK(buf []atLeastKCand, n, nodes int, frac, cut float64, alive []bool, estimate func(int32) int64) ([]atLeastKCand, int) {
	buf = buf[:0]
	for u := 0; u < n; u++ {
		if alive[u] {
			if d := estimate(int32(u)); float64(d) <= cut {
				buf = append(buf, atLeastKCand{u: int32(u), deg: d})
			}
		}
	}
	quota := int(frac * float64(nodes))
	if quota < 1 {
		quota = 1
	}
	if quota > len(buf) {
		quota = len(buf)
	}
	if quota == 0 {
		for u := 0; u < n; u++ {
			if alive[u] {
				buf = append(buf, atLeastKCand{u: int32(u), deg: estimate(int32(u))})
			}
		}
		quota = int(frac * float64(nodes))
		if quota < 1 {
			quota = 1
		}
	}
	sort.Slice(buf, func(i, j int) bool {
		if buf[i].deg != buf[j].deg {
			return buf[i].deg < buf[j].deg
		}
		return buf[i].u < buf[j].u
	})
	return buf, quota
}

// AtLeastK runs Algorithm 2 against an edge stream with O(n) node state:
// per pass the scan computes induced degrees, then only the
// ⌊ε/(1+ε)·|S|⌋ lowest-degree below-threshold candidates are removed, so
// one intermediate subgraph lands near the requested size k. With an
// ExactCounter the result matches core.AtLeastK exactly.
func AtLeastK(es EdgeStream, k int, eps float64, counter DegreeCounter) (*core.Result, error) {
	return AtLeastKOpts(es, k, eps, counter, core.Opts{})
}

// AtLeastKOpts is AtLeastK with an execution configuration: o.Ctx and
// o.Progress interrupt the run between passes (and mid-scan) with a
// core.PartialError. The scan is sequential and o.Workers is ignored:
// this is the engine AtLeastKParallelOpts falls back to for workers==1
// and for streams that cannot shard.
func AtLeastKOpts(es EdgeStream, k int, eps float64, counter DegreeCounter, o core.Opts) (*core.Result, error) {
	if eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("stream: epsilon must be a finite value >= 0, got %v", eps)
	}
	if counter == nil {
		return nil, fmt.Errorf("stream: nil degree counter")
	}
	n := es.NumNodes()
	if n == 0 {
		return nil, graph.ErrEmptyGraph
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("stream: k=%d out of range [1,%d]", k, n)
	}
	if err := o.Begin(); err != nil {
		return nil, err
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
	frac := eps / (1 + eps)
	pass := 0
	var candidates []atLeastKCand
	prev := core.PassStat{Nodes: n}
	for nodes >= k {
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
		if rho > bestDensity {
			bestDensity = rho
			bestPass = pass
		}
		var quota int
		candidates, quota = selectAtLeastK(candidates, n, nodes, frac, threshold*rho, alive, counter.Estimate)
		for _, c := range candidates[:quota] {
			alive[c.u] = false
			removedAt[c.u] = pass
		}
		st := core.PassStat{
			Pass: pass, Nodes: nodes, Edges: edges, Density: rho, Removed: quota,
		}
		trace = append(trace, st)
		prev = st
		nodes -= quota
	}
	if bestPass == 0 {
		return nil, fmt.Errorf("stream: no intermediate subgraph of size >= %d", k)
	}

	var set []int32
	for u, p := range removedAt {
		if p == 0 || p >= bestPass {
			set = append(set, int32(u))
		}
	}
	return &core.Result{Set: set, Density: bestDensity, Passes: pass, Trace: trace}, nil
}

// AtLeastKParallel runs Algorithm 2 with the per-pass edge scan split
// across the stream's shards into a striped exact counter. Results are
// bit-identical to AtLeastK with an ExactCounter for every worker
// count; non-shardable streams and workers==1 use the sequential scan.
func AtLeastKParallel(es EdgeStream, k int, eps float64, workers int) (*core.Result, error) {
	return AtLeastKParallelOpts(es, k, eps, core.Opts{Workers: workers})
}

// AtLeastKParallelOpts is AtLeastKParallel with a full execution
// configuration; see UndirectedParallelOpts for the cancellation
// semantics.
func AtLeastKParallelOpts(es EdgeStream, k int, eps float64, o core.Opts) (*core.Result, error) {
	workers := par.Clamp(o.Workers)
	ss, ok := es.(ShardedStream)
	if !ok || workers == 1 {
		return AtLeastKOpts(es, k, eps, NewExactCounter(es.NumNodes()), o)
	}
	if eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("stream: epsilon must be a finite value >= 0, got %v", eps)
	}
	n := es.NumNodes()
	if n == 0 {
		return nil, graph.ErrEmptyGraph
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("stream: k=%d out of range [1,%d]", k, n)
	}
	if err := o.Begin(); err != nil {
		return nil, err
	}
	pool := par.Acquire(workers)
	defer pool.Release()

	alive := make([]bool, n)
	for u := range alive {
		alive[u] = true
	}
	removedAt := make([]int, n)
	nodes := n

	bestPass := 0
	bestDensity := -1.0
	var trace []core.PassStat

	lanes := streamScanLanes(n, workers, 1)
	counter := NewStripedCounter(n, lanes)
	scanner := newShardScanner(o.Ctx, ss, pool, lanes, n, func(lane int, e Edge) bool {
		if alive[e.U] && alive[e.V] {
			counter.AddLane(lane, e.U)
			counter.AddLane(lane, e.V)
			return true
		}
		return false
	})
	threshold := 2 * (1 + eps)
	frac := eps / (1 + eps)
	pass := 0
	var candidates []atLeastKCand
	prev := core.PassStat{Nodes: n}
	for nodes >= k {
		if err := o.Checkpoint(prev); err != nil {
			return nil, &core.PartialError{Passes: pass, Trace: trace, Err: err}
		}
		pass++
		counter.Reset(pool)
		edges, err := scanner.scan()
		if err != nil {
			if o.Ctx != nil && err == o.Ctx.Err() {
				return nil, &core.PartialError{Passes: pass - 1, Trace: trace, Err: err}
			}
			return nil, fmt.Errorf("stream: pass %d: %w", pass, err)
		}
		counter.Fold(pool)
		rho := float64(edges) / float64(nodes)
		if rho > bestDensity {
			bestDensity = rho
			bestPass = pass
		}
		var quota int
		candidates, quota = selectAtLeastK(candidates, n, nodes, frac, threshold*rho, alive, counter.Estimate)
		for _, c := range candidates[:quota] {
			alive[c.u] = false
			removedAt[c.u] = pass
		}
		st := core.PassStat{
			Pass: pass, Nodes: nodes, Edges: edges, Density: rho, Removed: quota,
		}
		trace = append(trace, st)
		prev = st
		nodes -= quota
	}
	if bestPass == 0 {
		return nil, fmt.Errorf("stream: no intermediate subgraph of size >= %d", k)
	}

	var set []int32
	for u, p := range removedAt {
		if p == 0 || p >= bestPass {
			set = append(set, int32(u))
		}
	}
	return &core.Result{Set: set, Density: bestDensity, Passes: pass, Trace: trace}, nil
}
