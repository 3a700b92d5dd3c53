package stream

import (
	"fmt"
	"math"

	"densestream/internal/core"
	"densestream/internal/graph"
	"densestream/internal/par"
)

// StripedDegreeCounter is a lane-striped approximate degree counter —
// the parallel-scan shape of DegreeCounter, satisfied by
// sketch.Striped. The counter must be linear: after Fold, lane 0 holds
// exactly the state a single sequential counter would hold after the
// same multiset of Add calls, so estimates are independent of the lane
// count and the shard decomposition.
type StripedDegreeCounter interface {
	// Lanes returns the lane count, which fixes the scan fan-out.
	Lanes() int
	// Reset clears every lane for a new pass.
	Reset()
	// AddLane counts one edge incident on node u in the given lane.
	AddLane(lane int, u int32)
	// Fold merges all lanes into lane 0 after a scan.
	Fold()
	// Estimate returns the folded estimate for node u; call after Fold.
	Estimate(u int32) int64
	// MemoryWords reports the logical counter state in 64-bit words.
	MemoryWords() int
}

// SketchScanLanes returns the scan-lane fan-out the sketched parallel
// peeler uses for the given worker request (0 means all cores): the
// clamped worker count, capped like the exact striped scans. Build the
// StripedDegreeCounter with exactly this many lanes.
func SketchScanLanes(workers int) int {
	lanes := par.Clamp(workers)
	if lanes > maxScanLanes {
		lanes = maxScanLanes
	}
	return lanes
}

// UndirectedSketched runs Algorithm 1 with the §5.1 sketched degree
// counter and the per-pass scan split across the stream's shards — one
// lane per shard, folded after each scan. Because the sketch is
// linear, results are bit-identical to Undirected with the same
// (single-lane) sketch for every worker count; file streams shard in
// both the text and binary formats, so the sketched backend scans disk
// inputs with full worker fan-out.
func UndirectedSketched(es EdgeStream, eps float64, counter StripedDegreeCounter, workers int) (*core.Result, error) {
	return UndirectedSketchedOpts(es, eps, counter, core.Opts{Workers: workers})
}

// UndirectedSketchedOpts is UndirectedSketched with a full execution
// configuration; see UndirectedParallelOpts for the cancellation
// semantics. Streams that cannot shard (and single-worker runs) take
// the sequential path through lane 0.
func UndirectedSketchedOpts(es EdgeStream, eps float64, counter StripedDegreeCounter, o core.Opts) (*core.Result, error) {
	if counter == nil {
		return nil, fmt.Errorf("stream: nil degree counter")
	}
	workers := par.Clamp(o.Workers)
	ss, ok := es.(ShardedStream)
	if !ok || workers == 1 {
		return UndirectedOpts(es, eps, laneZeroCounter{counter}, o)
	}
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

	lanes := counter.Lanes()
	scanner := newShardScanner(o.Ctx, ss, pool, lanes, n, func(lane int, e Edge) bool {
		if alive[e.U] && alive[e.V] {
			counter.AddLane(lane, e.U)
			counter.AddLane(lane, e.V)
			return true
		}
		return false
	})
	threshold := 2 * (1 + eps)
	pass := 0
	prev := core.PassStat{Nodes: n}
	for nodes > 0 {
		if err := o.Checkpoint(prev); err != nil {
			return nil, &core.PartialError{Passes: pass, Trace: trace, Err: err}
		}
		pass++
		counter.Reset()
		edges, err := scanner.scan()
		if err != nil {
			if o.Ctx != nil && err == o.Ctx.Err() {
				return nil, &core.PartialError{Passes: pass - 1, Trace: trace, Err: err}
			}
			return nil, fmt.Errorf("stream: pass %d: %w", pass, err)
		}
		counter.Fold()
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
			// Sketch collision noise can push every low estimate past the
			// cut; take the sequential fallback so worker counts cannot
			// disagree.
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

// laneZeroCounter adapts a StripedDegreeCounter to the sequential
// DegreeCounter shape through lane 0; with a single live lane no Fold
// is needed and estimates read lane 0 directly.
type laneZeroCounter struct {
	c StripedDegreeCounter
}

// Reset implements DegreeCounter.
func (l laneZeroCounter) Reset() { l.c.Reset() }

// Add implements DegreeCounter.
func (l laneZeroCounter) Add(u int32) { l.c.AddLane(0, u) }

// Estimate implements DegreeCounter.
func (l laneZeroCounter) Estimate(u int32) int64 { return l.c.Estimate(u) }

// MemoryWords implements DegreeCounter.
func (l laneZeroCounter) MemoryWords() int { return l.c.MemoryWords() }
