package stream

import "densestream/internal/par"

// DegreeCounter accumulates per-node incident-edge counts during one pass
// of a streaming peeler and answers degree queries afterwards. The exact
// implementation uses an O(n) array, which is the paper's baseline; the
// Count-Sketch of §5.1 (O(t·b) words) reaches the sequential peeler
// through lane 0 of a StripedDegreeCounter.
type DegreeCounter interface {
	// Reset clears all counters for a new pass.
	Reset()
	// Add counts one edge incident on node u.
	Add(u int32)
	// Estimate returns the (possibly approximate) count for node u.
	Estimate(u int32) int64
	// MemoryWords reports the number of 64-bit words of state, used by
	// the Table 4 memory-ratio experiment.
	MemoryWords() int
}

// ExactCounter is the exact O(n) degree array.
type ExactCounter struct {
	counts []int64
}

// NewExactCounter returns an exact counter for n nodes.
func NewExactCounter(n int) *ExactCounter {
	return &ExactCounter{counts: make([]int64, n)}
}

// Reset implements DegreeCounter.
func (c *ExactCounter) Reset() {
	for i := range c.counts {
		c.counts[i] = 0
	}
}

// Add implements DegreeCounter.
func (c *ExactCounter) Add(u int32) { c.counts[u]++ }

// Estimate implements DegreeCounter.
func (c *ExactCounter) Estimate(u int32) int64 { return c.counts[u] }

// MemoryWords implements DegreeCounter.
func (c *ExactCounter) MemoryWords() int { return len(c.counts) }

// StripedCounter is the exact degree counter of the parallel streaming
// peelers: one full-length lane per worker, so every AddLane call
// touches only its own lane — no locks or atomics on the fast path.
// After a scan, Fold merges the lanes chunk-wise into lane 0 (each
// chunk of the node range is folded by exactly one worker, and integer
// addition makes the merge order irrelevant), after which Estimate
// serves exact counts.
//
// Each lane tracks which par.ChunkSize-aligned blocks it has touched
// since the last Reset, so Reset and Fold cost O(touched) rather than
// O(lanes·n): in the late passes of a peel, when only a shrinking core
// is still alive, the per-pass counter maintenance shrinks with it.
type StripedCounter struct {
	n     int
	lanes [][]int64 // windows into one flat backing array
	dirty [][]bool  // dirty[l][b]: lane l touched block b since Reset
	reset func(i int)
	fold  func(b, lo, hi int)
}

// NewStripedCounter returns a striped counter over n nodes with the
// given number of lanes (one per scanning worker; at least 1). The lane
// and dirty arrays are windows into two flat backing allocations, and
// the Reset and Fold loop bodies are built once here, so per-solve and
// per-pass costs stay flat in the lane count.
func NewStripedCounter(n, lanes int) *StripedCounter {
	if lanes < 1 {
		lanes = 1
	}
	c := &StripedCounter{
		n:     n,
		lanes: make([][]int64, lanes),
		dirty: make([][]bool, lanes),
	}
	flat := make([]int64, lanes*n)
	blocks := par.NumChunks(n)
	dirtyFlat := make([]bool, lanes*blocks)
	for i := range c.lanes {
		c.lanes[i] = flat[i*n : (i+1)*n : (i+1)*n]
		c.dirty[i] = dirtyFlat[i*blocks : (i+1)*blocks : (i+1)*blocks]
	}
	c.reset = func(i int) {
		lane, dirty := c.lanes[i], c.dirty[i]
		for b := range dirty {
			if !dirty[b] {
				continue
			}
			lo, hi := par.ChunkBounds(b, c.n)
			for j := lo; j < hi; j++ {
				lane[j] = 0
			}
			dirty[b] = false
		}
	}
	c.fold = func(b, lo, hi int) {
		base, baseDirty := c.lanes[0], c.dirty[0]
		for l, lane := range c.lanes[1:] {
			if !c.dirty[l+1][b] {
				continue
			}
			baseDirty[b] = true
			for u := lo; u < hi; u++ {
				base[u] += lane[u]
			}
		}
	}
	return c
}

// Lanes returns the number of lanes.
func (c *StripedCounter) Lanes() int { return len(c.lanes) }

// Reset clears every touched block for a new pass.
func (c *StripedCounter) Reset(pool *par.Pool) {
	pool.RunTasks(len(c.lanes), c.reset)
}

// AddLane counts one edge incident on node u in the given lane. Only
// the worker owning that lane may call it.
func (c *StripedCounter) AddLane(lane int, u int32) {
	c.lanes[lane][u]++
	c.dirty[lane][int(u)/par.ChunkSize] = true
}

// Fold merges all lanes into lane 0, block-parallel over the node
// range, skipping blocks no lane touched.
func (c *StripedCounter) Fold(pool *par.Pool) {
	if len(c.lanes) == 1 {
		return
	}
	pool.ForChunks(c.n, c.fold)
}

// Estimate returns the exact count for node u; call after Fold.
func (c *StripedCounter) Estimate(u int32) int64 { return c.lanes[0][u] }

// MemoryWords reports the counter state size in 64-bit words.
func (c *StripedCounter) MemoryWords() int { return len(c.lanes) * c.n }

// FloatStripedCounter is the float lane of StripedCounter, used by the
// parallel weighted peeler: one weighted-degree lane per scan shard.
// Because float addition is not associative, determinism here comes
// from fixing the whole decomposition: the lane count is a function of
// the input shape only (never the worker count), each lane accumulates
// exactly one shard's edges in stream order, and Fold merges lanes into
// lane 0 in ascending lane order per node. Any worker count therefore
// performs the identical sequence of additions. Skipping an untouched
// block skips only exact-zero additions (weights are positive, so no
// lane ever holds -0.0), which cannot move any sum by a ULP.
//
// Like StripedCounter, each lane tracks its touched blocks so Reset
// and Fold cost O(touched) instead of O(lanes·n).
type FloatStripedCounter struct {
	n     int
	lanes [][]float64 // windows into one flat backing array
	dirty [][]bool
	reset func(i int)
	fold  func(b, lo, hi int)
}

// NewFloatStripedCounter returns a float striped counter over n nodes
// with the given number of lanes (at least 1). Like NewStripedCounter,
// the lanes share flat backing arrays and the Reset and Fold bodies are
// built once.
func NewFloatStripedCounter(n, lanes int) *FloatStripedCounter {
	if lanes < 1 {
		lanes = 1
	}
	c := &FloatStripedCounter{
		n:     n,
		lanes: make([][]float64, lanes),
		dirty: make([][]bool, lanes),
	}
	flat := make([]float64, lanes*n)
	blocks := par.NumChunks(n)
	dirtyFlat := make([]bool, lanes*blocks)
	for i := range c.lanes {
		c.lanes[i] = flat[i*n : (i+1)*n : (i+1)*n]
		c.dirty[i] = dirtyFlat[i*blocks : (i+1)*blocks : (i+1)*blocks]
	}
	c.reset = func(i int) {
		lane, dirty := c.lanes[i], c.dirty[i]
		for b := range dirty {
			if !dirty[b] {
				continue
			}
			lo, hi := par.ChunkBounds(b, c.n)
			for j := lo; j < hi; j++ {
				lane[j] = 0
			}
			dirty[b] = false
		}
	}
	c.fold = func(b, lo, hi int) {
		base, baseDirty := c.lanes[0], c.dirty[0]
		for l, lane := range c.lanes[1:] {
			if !c.dirty[l+1][b] {
				continue
			}
			baseDirty[b] = true
			for u := lo; u < hi; u++ {
				base[u] += lane[u]
			}
		}
	}
	return c
}

// Lanes returns the number of lanes.
func (c *FloatStripedCounter) Lanes() int { return len(c.lanes) }

// Reset clears every touched block for a new pass.
func (c *FloatStripedCounter) Reset(pool *par.Pool) {
	pool.RunTasks(len(c.lanes), c.reset)
}

// AddLane accumulates weight w on node u in the given lane. Only the
// worker owning that lane may call it.
func (c *FloatStripedCounter) AddLane(lane int, u int32, w float64) {
	c.lanes[lane][u] += w
	c.dirty[lane][int(u)/par.ChunkSize] = true
}

// Fold merges all lanes into lane 0, block-parallel over the node
// range, skipping blocks no lane touched; per node the lanes are added
// in ascending lane order, so the float grouping is fixed by the
// decomposition, not the scheduling.
func (c *FloatStripedCounter) Fold(pool *par.Pool) {
	if len(c.lanes) == 1 {
		return
	}
	pool.ForChunks(c.n, c.fold)
}

// Estimate returns the folded weighted degree of node u; call after
// Fold.
func (c *FloatStripedCounter) Estimate(u int32) float64 { return c.lanes[0][u] }

// MemoryWords reports the counter state size in 64-bit words.
func (c *FloatStripedCounter) MemoryWords() int { return len(c.lanes) * c.n }
