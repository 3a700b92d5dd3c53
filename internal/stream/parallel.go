package stream

import (
	"context"
	"fmt"
	"io"
	"math"

	"densestream/internal/core"
	"densestream/internal/graph"
	"densestream/internal/par"
)

// maxStripedWords bounds the striped counters' total memory (64-bit
// words, 1 GiB): scan lanes are capped so the streaming algorithms'
// O(n) state promise does not silently scale with the core count on
// huge graphs — past the cap, scan parallelism degrades instead of
// memory growing.
const maxStripedWords = 1 << 27

// maxScanLanes caps the per-pass scan fan-out; edge scans are memory
// bandwidth bound well before this, and each lane costs n words.
const maxScanLanes = 8

// streamScanLanes returns the scan lane count for n nodes, the
// requested workers, and the number of striped counters the caller
// allocates. Always at least 1; depends only on the input shape, so
// lane-grouped merges stay deterministic.
func streamScanLanes(n, workers, counters int) int {
	lanes := workers
	if lanes > maxScanLanes {
		lanes = maxScanLanes
	}
	if n > 0 {
		if budget := maxStripedWords / (n * counters); lanes > budget {
			lanes = budget
		}
	}
	if lanes < 1 {
		lanes = 1
	}
	return lanes
}

// shardScanner drives the per-pass sharded edge scans of the parallel
// peelers: visit is called for every in-range edge with the shard's
// lane index and reports whether the edge survives (is counted).
// Per-shard counts and errors merge in shard order. A non-nil ctx is
// polled periodically inside each shard scan; its error wins over
// per-shard errors so callers can map it to a PartialError.
//
// A scanner is built once per solve — the shard task body, the visit
// hook, and the count and error slots are all allocated up front — so
// the per-pass scan itself allocates nothing (streams memoize their
// shard sets, and readers keep their decode buffers across passes).
type shardScanner struct {
	ss    ShardedStream
	pool  *par.Pool
	lanes int
	n     int
	ctx   context.Context
	visit func(lane int, e Edge) bool

	shards []EdgeStream
	counts []int64
	errs   []error
	task   func(i int)
}

// newShardScanner returns a scanner over ss with the fixed lane count;
// visit must be safe for one concurrent call per lane.
func newShardScanner(ctx context.Context, ss ShardedStream, pool *par.Pool, lanes, n int, visit func(lane int, e Edge) bool) *shardScanner {
	s := &shardScanner{ss: ss, pool: pool, lanes: lanes, n: n, ctx: ctx, visit: visit}
	s.task = func(i int) {
		sh := s.shards[i]
		if err := sh.Reset(); err != nil {
			s.errs[i] = err
			return
		}
		var scanned int64
		for {
			e, err := sh.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				s.errs[i] = err
				return
			}
			if err := pollCtx(s.ctx, scanned); err != nil {
				s.errs[i] = err
				return
			}
			scanned++
			if e.U < 0 || int(e.U) >= s.n || e.V < 0 || int(e.V) >= s.n {
				s.errs[i] = fmt.Errorf("%w: edge (%d,%d) with n=%d", graph.ErrNodeRange, e.U, e.V, s.n)
				return
			}
			if s.visit(i, e) {
				s.counts[i]++
			}
		}
	}
	return s
}

// scan runs one full pass over the shards and returns the surviving
// edge count.
func (s *shardScanner) scan() (int64, error) {
	s.shards = s.ss.Shards(s.lanes)
	if cap(s.counts) < len(s.shards) {
		s.counts = make([]int64, len(s.shards))
		s.errs = make([]error, len(s.shards))
	}
	s.counts = s.counts[:len(s.shards)]
	s.errs = s.errs[:len(s.shards)]
	for i := range s.shards {
		s.counts[i] = 0
		s.errs[i] = nil
	}
	s.pool.RunTasks(len(s.shards), s.task)
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			return 0, err
		}
	}
	var edges int64
	for i := range s.shards {
		if s.errs[i] != nil {
			return 0, s.errs[i]
		}
		edges += s.counts[i]
	}
	return edges, nil
}

// UndirectedParallel runs Algorithm 1 against an edge stream with the
// per-pass scan split across workers: the stream's shards are scanned
// concurrently into a striped exact counter (one lane per worker, no
// locks), per-shard edge counts merge in shard order, and the removal
// scan shards over the node range. Results are bit-identical to
// Undirected with an ExactCounter for every worker count. Slice and
// file streams both implement ShardedStream (files shard into byte
// ranges with line-boundary resync); streams that do not fall back to
// the sequential scan.
func UndirectedParallel(es EdgeStream, eps float64, workers int) (*core.Result, error) {
	return UndirectedParallelOpts(es, eps, core.Opts{Workers: workers})
}

// UndirectedParallelOpts is UndirectedParallel with a full execution
// configuration: o.Ctx and o.Progress interrupt the run between passes
// (and mid-scan) with a core.PartialError.
func UndirectedParallelOpts(es EdgeStream, eps float64, o core.Opts) (*core.Result, error) {
	workers := par.Clamp(o.Workers)
	ss, ok := es.(ShardedStream)
	if !ok || workers == 1 {
		return UndirectedOpts(es, eps, NewExactCounter(es.NumNodes()), o)
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
	// The removal sweep body is hoisted out of the pass loop (cut and
	// pass ride in captured variables) and folds per-chunk counts
	// through a reusable slot array, so a pass allocates nothing.
	var cut float64
	curPass := 0
	slots := make([]int64, par.NumChunks(n))
	removeBelowCut := func(b, lo, hi int) {
		var cnt int64
		for u := lo; u < hi; u++ {
			if alive[u] && float64(counter.Estimate(int32(u))) <= cut {
				alive[u] = false
				removedAt[u] = curPass
				cnt++
			}
		}
		slots[b] = cnt
	}
	threshold := 2 * (1 + eps)
	pass := 0
	prev := core.PassStat{Nodes: n}
	for nodes > 0 {
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
		// ρ of the current subgraph is the post-removal density of the
		// previous pass — exactly what Algorithm 1 compares for S̃.
		if rho > bestDensity {
			bestDensity = rho
			bestPass = pass
		}
		cut = threshold * rho
		curPass = pass
		pool.ForChunks(n, removeBelowCut)
		removed := 0
		for _, s := range slots {
			removed += int(s)
		}
		if removed == 0 {
			// Unreachable with exact counting unless float rounding pulls
			// the cut below the minimum degree; take the sequential
			// fallback so worker counts cannot disagree even then.
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

// DirectedParallel runs Algorithm 3 against a directed edge stream with
// the same sharded pass execution as UndirectedParallel: out- and
// in-degree lanes are striped per worker and folded after each scan.
// Results are bit-identical to Directed with ExactCounters for every
// worker count; slice and file streams are both shardable, and
// non-shardable streams fall back to the sequential scan.
func DirectedParallel(es EdgeStream, c, eps float64, workers int) (*core.DirectedResult, error) {
	return DirectedParallelOpts(es, c, eps, core.Opts{Workers: workers})
}

// DirectedParallelOpts is DirectedParallel with a full execution
// configuration; see UndirectedParallelOpts for the cancellation
// semantics.
func DirectedParallelOpts(es EdgeStream, c, eps float64, o core.Opts) (*core.DirectedResult, error) {
	workers := par.Clamp(o.Workers)
	ss, ok := es.(ShardedStream)
	if !ok || workers == 1 {
		n := es.NumNodes()
		return DirectedOpts(es, c, eps, NewExactCounter(n), NewExactCounter(n), o)
	}
	if eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("stream: epsilon must be a finite value >= 0, got %v", eps)
	}
	if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		return nil, fmt.Errorf("stream: c must be a finite value > 0, got %v", c)
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

	lanes := streamScanLanes(n, workers, 2)
	out := NewStripedCounter(n, lanes)
	in := NewStripedCounter(n, lanes)
	scanner := newShardScanner(o.Ctx, ss, pool, lanes, n, func(lane int, e Edge) bool {
		if aliveS[e.U] && aliveT[e.V] {
			out.AddLane(lane, e.U)
			in.AddLane(lane, e.V)
			return true
		}
		return false
	})
	// Both removal sweep bodies are hoisted out of the pass loop; cut
	// and pass ride in captured variables and per-chunk counts fold
	// through a reusable slot array (see UndirectedParallelOpts).
	var cut float64
	curPass := 0
	slots := make([]int64, par.NumChunks(n))
	removeS := func(b, lo, hi int) {
		var cnt int64
		for u := lo; u < hi; u++ {
			if aliveS[u] && float64(out.Estimate(int32(u))) <= cut {
				aliveS[u] = false
				removedAtS[u] = curPass
				cnt++
			}
		}
		slots[b] = cnt
	}
	removeT := func(b, lo, hi int) {
		var cnt int64
		for v := lo; v < hi; v++ {
			if aliveT[v] && float64(in.Estimate(int32(v))) <= cut {
				aliveT[v] = false
				removedAtT[v] = curPass
				cnt++
			}
		}
		slots[b] = cnt
	}
	sumSlots := func() int {
		total := 0
		for _, s := range slots {
			total += int(s)
		}
		return total
	}
	pass := 0
	prev := core.PassStat{Nodes: 2 * n}
	for sizeS > 0 && sizeT > 0 {
		if err := o.Checkpoint(prev); err != nil {
			return nil, &core.PartialError{Passes: pass, DirectedTrace: trace, Err: err}
		}
		pass++
		out.Reset(pool)
		in.Reset(pool)
		edges, err := scanner.scan()
		if err != nil {
			if o.Ctx != nil && err == o.Ctx.Err() {
				return nil, &core.PartialError{Passes: pass - 1, DirectedTrace: trace, Err: err}
			}
			return nil, fmt.Errorf("stream: pass %d: %w", pass, err)
		}
		out.Fold(pool)
		in.Fold(pool)
		rho := float64(edges) / math.Sqrt(float64(sizeS)*float64(sizeT))
		if rho > bestDensity {
			bestDensity = rho
			bestPass = pass
		}
		stat := core.DirectedPassStat{Pass: pass, Edges: edges, Density: rho}
		curPass = pass
		if float64(sizeS) >= c*float64(sizeT) {
			cut = (1 + eps) * float64(edges) / float64(sizeS)
			pool.ForChunks(n, removeS)
			stat.RemovedS = sumSlots()
			if stat.RemovedS == 0 {
				return nil, fmt.Errorf("stream: directed pass %d removed no S nodes", pass)
			}
			sizeS -= stat.RemovedS
			stat.PeeledSide = 'S'
		} else {
			cut = (1 + eps) * float64(edges) / float64(sizeT)
			pool.ForChunks(n, removeT)
			stat.RemovedT = sumSlots()
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
