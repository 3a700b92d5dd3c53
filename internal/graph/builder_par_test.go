package graph

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// randomEdges builds a shuffled multigraph edge list (duplicates
// included, both orientations) with small-integer weights, so
// duplicate-weight sums are exact in float64 and independent of
// accumulation order.
func randomEdges(n, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, Edge{U: u, V: v, Weight: float64(1 + rng.Intn(4))})
	}
	return edges
}

// refUndirected is the sort-based reference builder: normalize every
// edge to u < v, stable-sort by (u, v), merge duplicates summing their
// weights in insertion order, and scatter the merged list into rows.
// Like Builder, it freezes a weighted graph only if it saw an edge.
func refUndirected(n int, edges []Edge, weighted bool) *Undirected {
	weighted = weighted && len(edges) > 0
	es := make([]Edge, len(edges))
	for i, e := range edges {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		es[i] = e
	}
	sort.SliceStable(es, func(i, j int) bool {
		return es[i].U < es[j].U || (es[i].U == es[j].U && es[i].V < es[j].V)
	})
	merged := es[:0]
	for _, e := range es {
		if k := len(merged); k > 0 && merged[k-1].U == e.U && merged[k-1].V == e.V {
			merged[k-1].Weight += e.Weight
			continue
		}
		merged = append(merged, e)
	}
	g := &Undirected{n: n, m: int64(len(merged)), offsets: make([]int32, n+1)}
	for _, e := range merged {
		g.offsets[e.U+1]++
		g.offsets[e.V+1]++
	}
	rowStarts(g.offsets)
	g.adj = make([]int32, 2*len(merged))
	if weighted {
		g.weights = make([]float64, len(g.adj))
	}
	cursor := slices.Clone(g.offsets[:n])
	for _, e := range merged {
		g.adj[cursor[e.U]], g.adj[cursor[e.V]] = e.V, e.U
		if weighted {
			g.weights[cursor[e.U]], g.weights[cursor[e.V]] = e.Weight, e.Weight
		}
		cursor[e.U]++
		cursor[e.V]++
		g.totalW += e.Weight
	}
	if !weighted {
		g.totalW = float64(len(merged))
	}
	return g
}

// refDirected is refUndirected for directed graphs (no weights, no
// normalization).
func refDirected(n int, edges []Edge) *Directed {
	es := slices.Clone(edges)
	sort.SliceStable(es, func(i, j int) bool {
		return es[i].U < es[j].U || (es[i].U == es[j].U && es[i].V < es[j].V)
	})
	es = slices.CompactFunc(es, func(a, b Edge) bool { return a.U == b.U && a.V == b.V })
	g := &Directed{n: n, m: int64(len(es)), outOffsets: make([]int32, n+1), inOffsets: make([]int32, n+1)}
	for _, e := range es {
		g.outOffsets[e.U+1]++
		g.inOffsets[e.V+1]++
	}
	rowStarts(g.outOffsets)
	rowStarts(g.inOffsets)
	g.outAdj = make([]int32, len(es))
	g.inAdj = make([]int32, len(es))
	outCur := slices.Clone(g.outOffsets[:n])
	inCur := slices.Clone(g.inOffsets[:n])
	for _, e := range es {
		g.outAdj[outCur[e.U]] = e.V
		outCur[e.U]++
		g.inAdj[inCur[e.V]] = e.U
		inCur[e.V]++
	}
	return g
}

func freezeUndirected(t testing.TB, n int, edges []Edge, weighted bool) *Undirected {
	t.Helper()
	b := NewBuilder(n)
	for _, e := range edges {
		var err error
		if weighted {
			err = b.AddWeightedEdge(e.U, e.V, e.Weight)
		} else {
			err = b.AddEdge(e.U, e.V)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func freezeDirected(t testing.TB, n int, edges []Edge) *Directed {
	t.Helper()
	b := NewDirectedBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFreezeMatchesSortReference checks the counting-sort Freeze
// against the sort-based reference builder on shuffled multigraphs:
// undirected, weighted and directed, sparse and dense in duplicates.
func TestFreezeMatchesSortReference(t *testing.T) {
	for _, tc := range []struct {
		n, m int
		seed int64
	}{{1, 0, 1}, {2, 5, 2}, {50, 2000, 3}, {500, 200000, 17}, {20000, 60000, 5}} {
		var edges []Edge
		if tc.n > 1 {
			edges = randomEdges(tc.n, tc.m, tc.seed)
		}
		if got, want := freezeUndirected(t, tc.n, edges, false), refUndirected(tc.n, edges, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d m=%d: undirected Freeze differs from the sort reference", tc.n, tc.m)
		}
		if got, want := freezeUndirected(t, tc.n, edges, true), refUndirected(tc.n, edges, true); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d m=%d: weighted Freeze differs from the sort reference", tc.n, tc.m)
		}
		if got, want := freezeDirected(t, tc.n, edges), refDirected(tc.n, edges); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d m=%d: directed Freeze differs from the sort reference", tc.n, tc.m)
		}
	}
}

// TestFreezeParallelMatchesSequentialGraph checks Freeze is identical
// at one and several workers (the row passes run on internal/par at
// GOMAXPROCS) and equal to the sort reference.
func TestFreezeParallelMatchesSequentialGraph(t *testing.T) {
	edges := randomEdges(300, 100000, 23)
	type built struct {
		u, w *Undirected
		d    *Directed
	}
	freezeAt := func(procs int) built {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return built{freezeUndirected(t, 300, edges, false), freezeUndirected(t, 300, edges, true), freezeDirected(t, 300, edges)}
	}
	seq := freezeAt(1)
	want := built{refUndirected(300, edges, false), refUndirected(300, edges, true), refDirected(300, edges)}
	if !reflect.DeepEqual(seq, want) {
		t.Fatal("sequential Freeze differs from the sort reference")
	}
	for _, procs := range []int{2, 4} {
		if got := freezeAt(procs); !reflect.DeepEqual(got, seq) {
			t.Fatalf("GOMAXPROCS=%d: Freeze differs from the sequential run", procs)
		}
	}
}

// TestFreezeSumsParallelEdgesInInsertionOrder pins the weight of an
// edge inserted three times: the copies are summed left to right in
// insertion order, whatever their orientation. With weights 1e16, 1, 1
// the order decides the result (1e16+1+1 rounds to 1e16, while 1+1+1e16
// is 1e16+2). Random other edges make both rows long enough that the
// row sort leaves insertion sort.
func TestFreezeSumsParallelEdgesInInsertionOrder(t *testing.T) {
	big, one := 1e16, 1.0
	for _, tc := range []struct {
		name  string
		order []float64
	}{
		{"big-first", []float64{big, one, one}},
		{"big-last", []float64{one, one, big}},
		{"big-middle", []float64{one, big, one}},
	} {
		rng := rand.New(rand.NewSource(1))
		var edges []Edge
		for i, w := range tc.order {
			for k := 0; k < 30; k++ {
				edges = append(edges, Edge{U: 1, V: int32(4 + rng.Intn(196)), Weight: 1}, Edge{U: int32(4 + rng.Intn(196)), V: 3, Weight: 1})
			}
			e := Edge{U: 1, V: 3, Weight: w}
			if i%2 == 1 {
				e.U, e.V = e.V, e.U
			}
			edges = append(edges, e)
		}
		g := freezeUndirected(t, 200, edges, true)
		want := 0.0
		for _, w := range tc.order {
			want += w
		}
		for _, u := range []int32{1, 3} {
			nbrs, ws := g.Neighbors(u), g.NeighborWeights(u)
			if i := slices.Index(nbrs, 4-u); i < 0 || ws[i] != want {
				t.Fatalf("%s: row %d: weight of the repeated edge is not the insertion-order sum %v", tc.name, u, want)
			}
		}
		if !reflect.DeepEqual(g, refUndirected(200, edges, true)) {
			t.Fatalf("%s: Freeze differs from the sort reference", tc.name)
		}
	}
}

// TestCSRRowsAnySegmentation checks csrRows gives the one-segment
// result for random cuts of the same edges into segments, empty ones
// included, on every row orientation and at one and four procs (so up
// to four groups of segments). Weights of 1e16 and 1 on repeated edges
// make any change in summation order visible. It also checks groupRuns
// keeps the segments in order in 1..k runs.
func TestCSRRowsAnySegmentation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	edges := randomEdges(40, 5000, 41)
	for i := range edges {
		if rng.Intn(3) == 0 {
			edges[i].Weight = 1e16
		}
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, dir := range [][2]bool{{true, true}, {true, false}, {false, true}} {
			wo, wa, ww, err := csrRows(40, [][]Edge{edges}, dir[0], dir[1], true)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 20; trial++ {
				cuts := []int{0, len(edges)}
				for range rng.Intn(8) {
					cuts = append(cuts, rng.Intn(len(edges)+1))
				}
				slices.Sort(cuts)
				var segs [][]Edge
				for i := 1; i < len(cuts); i++ {
					segs = append(segs, edges[cuts[i-1]:cuts[i]])
				}
				o, a, w, err := csrRows(40, segs, dir[0], dir[1], true)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(o, wo) || !slices.Equal(a, wa) || !slices.Equal(w, ww) {
					t.Fatalf("procs=%d out=%v in=%v cuts %v: rows differ from the one-segment build", procs, dir[0], dir[1], cuts)
				}
				for k := 1; k <= 5; k++ {
					groups := groupRuns(segs, len(edges), k)
					var flat [][]Edge
					for _, g := range groups {
						flat = append(flat, g...)
					}
					if len(groups) < 1 || len(groups) > k || len(flat) != len(segs) {
						t.Fatalf("groupRuns(%d segments, k=%d): %d groups over %d segments", len(segs), k, len(groups), len(flat))
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// BenchmarkFreeze measures Builder.Freeze on a multi-million-edge
// multigraph, with the edges inserted in (u, v) order and shuffled.
func BenchmarkFreeze(b *testing.B) {
	shuffled := randomEdges(200000, 1<<21, 1)
	sorted := slices.Clone(shuffled)
	slices.SortFunc(sorted, func(x, y Edge) int {
		if x.U != y.U {
			return int(x.U - y.U)
		}
		return int(x.V - y.V)
	})
	for _, in := range []struct {
		name  string
		edges []Edge
	}{{"sorted", sorted}, {"shuffled", shuffled}} {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.edges)) * 16)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bld := &Builder{n: 200000, edges: slices.Clone(in.edges)}
				b.StartTimer()
				if _, err := bld.Freeze(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
