package stream

import (
	"reflect"
	"testing"

	"densestream/internal/core"
	"densestream/internal/gen"
	"densestream/internal/par"
)

func TestSliceStreamShardsPartitionEdges(t *testing.T) {
	g, err := gen.ChungLu(500, 2000, 2.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := FromUndirected(g)
	for _, k := range []int{1, 3, 8, 1000} {
		shards := s.Shards(k)
		if len(shards) > k && k >= 1 {
			t.Fatalf("Shards(%d) returned %d shards", k, len(shards))
		}
		var total int64
		for _, sh := range shards {
			if sh.NumNodes() != s.NumNodes() {
				t.Fatalf("shard has %d nodes, want %d", sh.NumNodes(), s.NumNodes())
			}
			if err := sh.Reset(); err != nil {
				t.Fatal(err)
			}
			for {
				if _, err := sh.Next(); err != nil {
					break
				}
				total++
			}
		}
		if total != g.NumEdges() {
			t.Fatalf("Shards(%d) yield %d edges, want %d", k, total, g.NumEdges())
		}
	}
}

func TestStripedCounterFoldMatchesExact(t *testing.T) {
	n := 3*par.ChunkSize + 7
	pool := par.New(4)
	sc := NewStripedCounter(n, 4)
	exact := NewExactCounter(n)
	for i := 0; i < 4*n; i++ {
		u := int32(i % n)
		sc.AddLane(i%4, u)
		exact.Add(u)
	}
	sc.Fold(pool)
	for u := 0; u < n; u += 97 {
		if sc.Estimate(int32(u)) != exact.Estimate(int32(u)) {
			t.Fatalf("node %d: striped %d, exact %d", u, sc.Estimate(int32(u)), exact.Estimate(int32(u)))
		}
	}
	if sc.MemoryWords() != 4*n {
		t.Fatalf("MemoryWords = %d, want %d", sc.MemoryWords(), 4*n)
	}
	sc.Reset(pool)
	if sc.Estimate(5) != 0 {
		t.Fatal("Reset did not clear lane 0")
	}
}

func TestStreamScanLanesBoundsMemory(t *testing.T) {
	if got := streamScanLanes(1000, 4, 1); got != 4 {
		t.Fatalf("small graph: lanes = %d, want 4", got)
	}
	if got := streamScanLanes(1000, 64, 1); got != maxScanLanes {
		t.Fatalf("many workers: lanes = %d, want cap %d", got, maxScanLanes)
	}
	// A huge node count must shed lanes instead of multiplying memory:
	// above one lane, lanes*n*counters stays within the word budget
	// (one lane per counter is the floor — that memory is inherent to
	// exact counting, not to striping).
	n := 100_000_000
	for _, counters := range []int{1, 2} {
		lanes := streamScanLanes(n, 32, counters)
		if lanes < 1 || (lanes > 1 && lanes*n*counters > maxStripedWords) {
			t.Fatalf("n=%d counters=%d: lanes = %d exceeds budget", n, counters, lanes)
		}
		if lanes == 32 {
			t.Fatalf("n=%d counters=%d: lanes not shed", n, counters)
		}
	}
	if got := streamScanLanes(0, 4, 1); got != 4 {
		t.Fatalf("n=0: lanes = %d", got)
	}
}

func TestUndirectedParallelMatchesSequential(t *testing.T) {
	for _, seed := range []int64{2, 17} {
		g, err := gen.ChungLu(2500, 12000, 2.1, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0, 0.5, 1} {
			ref, err := Undirected(FromUndirected(g), eps, NewExactCounter(g.NumNodes()))
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 8} {
				got, err := UndirectedParallel(FromUndirected(g), eps, w)
				if err != nil {
					t.Fatal(err)
				}
				if ref.Density != got.Density || ref.Passes != got.Passes {
					t.Fatalf("seed=%d eps=%v workers=%d: density/passes differ", seed, eps, w)
				}
				if !reflect.DeepEqual(ref.Set, got.Set) || !reflect.DeepEqual(ref.Trace, got.Trace) {
					t.Fatalf("seed=%d eps=%v workers=%d: set/trace differ", seed, eps, w)
				}
			}
		}
	}
}

func TestDirectedParallelMatchesSequential(t *testing.T) {
	g, err := gen.ChungLuDirected(2000, 10000, 2.2, 21)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	for _, c := range []float64{0.5, 1, 2} {
		ref, err := Directed(FromDirected(g), c, 0.5, NewExactCounter(n), NewExactCounter(n))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 8} {
			got, err := DirectedParallel(FromDirected(g), c, 0.5, w)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Density != got.Density || ref.Passes != got.Passes {
				t.Fatalf("c=%v workers=%d: density/passes differ", c, w)
			}
			if !reflect.DeepEqual(ref.S, got.S) || !reflect.DeepEqual(ref.T, got.T) {
				t.Fatalf("c=%v workers=%d: S/T differ", c, w)
			}
			if !reflect.DeepEqual(ref.Trace, got.Trace) {
				t.Fatalf("c=%v workers=%d: traces differ", c, w)
			}
		}
	}
}

// A mid-scan shard failure must surface, not hang or corrupt state.
func TestUndirectedParallelPropagatesShardErrors(t *testing.T) {
	g, err := gen.ChungLu(300, 1200, 2.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	fs := &faultShardedStream{inner: FromUndirected(g), failAfter: 100}
	if _, err := UndirectedParallel(fs, 0.5, 4); err == nil {
		t.Fatal("expected injected shard error")
	}
}

// faultShardedStream shards into sub-streams whose first shard fails
// after a fixed number of edges.
type faultShardedStream struct {
	inner     *SliceStream
	failAfter int
}

func (f *faultShardedStream) NumNodes() int       { return f.inner.NumNodes() }
func (f *faultShardedStream) Reset() error        { return f.inner.Reset() }
func (f *faultShardedStream) Next() (Edge, error) { return f.inner.Next() }

func (f *faultShardedStream) Shards(k int) []EdgeStream {
	shards := f.inner.Shards(k)
	shards[0] = &FaultStream{Inner: shards[0], FailAfter: f.failAfter}
	return shards
}

// inflatedCounter is a StripedDegreeCounter whose estimates are the
// exact degrees plus a constant above every cut, so no node ever falls
// at or below the Algorithm 1 threshold and each pass must take the
// drop-the-lowest fallback.
type inflatedCounter struct{ lanes [][]int64 }

const inflation = 1 << 40

func newInflatedCounter(n, lanes int) *inflatedCounter {
	c := &inflatedCounter{lanes: make([][]int64, lanes)}
	for l := range c.lanes {
		c.lanes[l] = make([]int64, n)
	}
	return c
}

func (c *inflatedCounter) Lanes() int { return len(c.lanes) }

func (c *inflatedCounter) Reset() {
	for _, l := range c.lanes {
		clear(l)
	}
}

func (c *inflatedCounter) AddLane(lane int, u int32) { c.lanes[lane][u]++ }

func (c *inflatedCounter) Fold() {
	for _, l := range c.lanes[1:] {
		for u, v := range l {
			c.lanes[0][u] += v
		}
	}
}

func (c *inflatedCounter) Estimate(u int32) int64 { return c.lanes[0][u] + inflation }

func (c *inflatedCounter) MemoryWords() int { return len(c.lanes[0]) }

// TestSketchedFallbackRemovesQuota drives every pass through the
// fallback for a counter that overestimates every node: the sequential
// (workers=1) and sharded (workers=3) engines must agree exactly, and
// each pass must drop exactly max(1, ⌊ε/(1+ε)·|S|⌋) nodes.
func TestSketchedFallbackRemovesQuota(t *testing.T) {
	g, err := gen.ChungLu(600, 3000, 2.2, 23)
	if err != nil {
		t.Fatal(err)
	}
	n := int(g.NumNodes())
	for _, eps := range []float64{0, 0.5, 3} {
		var results []*core.Result
		for _, workers := range []int{1, 3} {
			counter := newInflatedCounter(n, SketchScanLanes(workers))
			r, err := UndirectedSketchedOpts(FromUndirected(g), eps, counter, core.Opts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Fatalf("eps=%v: workers=1 and workers=3 disagree", eps)
		}
		for _, st := range results[0].Trace {
			quota := max(1, int(eps/(1+eps)*float64(st.Nodes)))
			if st.Removed != quota {
				t.Fatalf("eps=%v pass %d: removed %d of %d nodes, want quota %d", eps, st.Pass, st.Removed, st.Nodes, quota)
			}
		}
	}
}
