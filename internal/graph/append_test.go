package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// randomBatch draws k edges on n nodes with repeats, reversed pairs and
// a few ids in [n0, n), where the graph grows.
func randomBatch(rng *rand.Rand, n0, n, k int) []Edge {
	batch := make([]Edge, 0, k)
	for len(batch) < k {
		u, v := int32(rng.Intn(n0)), int32(rng.Intn(n))
		if rng.Intn(4) == 0 && len(batch) > 0 {
			p := batch[rng.Intn(len(batch))]
			u, v = p.V, p.U // a reversed repeat
		}
		if u == v {
			continue
		}
		batch = append(batch, Edge{U: u, V: v, Weight: float64(1+rng.Intn(7)) / 10})
	}
	return batch
}

// TestAppendMatchesFreeze grows graphs batch by batch through both
// append strategies and requires every version to be reflect.DeepEqual
// to Builder.Freeze over the whole insertion sequence.
func TestAppendMatchesFreeze(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, kind := range []string{"unweighted", "weighted", "directed"} {
			for _, strategy := range []string{"splice", "refreeze", "auto"} {
				t.Run(fmt.Sprintf("procs=%d/%s/%s", procs, kind, strategy), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					testAppendMatchesFreeze(t, kind, strategy)
				})
			}
		}
	}
}

func testAppendMatchesFreeze(t *testing.T, kind, strategy string) {
	rng := rand.New(rand.NewSource(int64(len(kind) + 7*len(strategy))))
	weighted := kind == "weighted"
	var log []Edge
	n := 1 + rng.Intn(3)
	var ug *Undirected
	var dg *Directed
	for step := 0; step < 40; step++ {
		grown := n + rng.Intn(3)
		k := rng.Intn(3 * grown)
		if step%9 == 4 {
			k = 0
		}
		var batch []Edge
		if grown >= 2 {
			batch = randomBatch(rng, max(n, 2), grown, k)
		}
		n = grown
		log = append(log, batch...)
		var err error
		if kind == "directed" {
			switch strategy {
			case "splice":
				if dg == nil {
					dg = &Directed{outOffsets: []int32{0}, inOffsets: []int32{0}}
				}
				dg, err = spliceDirected(dg, batch, n)
			case "refreeze":
				if dg == nil {
					dg = &Directed{outOffsets: []int32{0}, inOffsets: []int32{0}}
				}
				dg, err = refreezeDirected(dg, batch, n)
			default:
				dg, err = AppendDirected(dg, batch, n)
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			b := NewDirectedBuilder(n)
			for _, e := range log {
				if err := b.AddEdge(e.U, e.V); err != nil {
					t.Fatal(err)
				}
			}
			want, err := b.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dg, want) {
				t.Fatalf("step %d: append drifted from Freeze\n got: %+v\nwant: %+v", step, dg, want)
			}
			continue
		}
		switch strategy {
		case "splice":
			if ug == nil {
				ug = &Undirected{offsets: []int32{0}}
			}
			ug, err = spliceUndirected(ug, batch, n, weighted)
		case "refreeze":
			if ug == nil {
				ug = &Undirected{offsets: []int32{0}}
			}
			ug, err = refreezeUndirected(ug, batch, n, weighted)
		default:
			ug, err = AppendUndirected(ug, batch, n, weighted)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		b := NewBuilder(n)
		for _, e := range log {
			if weighted {
				err = b.AddWeightedEdge(e.U, e.V, e.Weight)
			} else {
				err = b.AddEdge(e.U, e.V)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		want, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ug, want) {
			t.Fatalf("step %d: append drifted from Freeze\n got: %+v\nwant: %+v", step, ug, want)
		}
	}
}

// TestAppendMixedWeights appends weighted edges to a graph frozen from
// AddEdge edges: the old edges weigh 1, as in a Builder that received
// both kinds.
func TestAppendMixedWeights(t *testing.T) {
	g := MustFromEdges(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}, {1, 3}, {0, 2}, {2, 4}, {0, 3}})
	batch := []Edge{{U: 1, V: 0, Weight: 2.5}}
	got, err := AppendUndirected(g, batch, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(6)
	g.Edges(func(u, v int32, _ float64) bool { return b.AddEdge(u, v) == nil })
	if err := b.AddWeightedEdge(1, 0, 2.5); err != nil {
		t.Fatal(err)
	}
	want, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}
	if same, _ := AppendUndirected(got, nil, 6, true); same != got {
		t.Fatal("an empty batch did not return the graph itself")
	}
}

func TestAppendRejectsBadBatches(t *testing.T) {
	g := MustFromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	cases := []struct {
		name     string
		batch    []Edge
		n        int
		weighted bool
	}{
		{"shrink", nil, 3, false},
		{"out-of-range", []Edge{{U: 0, V: 4}}, 4, false},
		{"negative", []Edge{{U: -1, V: 2}}, 4, false},
		{"self-loop", []Edge{{U: 2, V: 2}}, 4, false},
		{"zero-weight", []Edge{{U: 0, V: 2}}, 4, true},
	}
	for _, tc := range cases {
		if _, err := AppendUndirected(g, tc.batch, tc.n, tc.weighted); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	d := MustFromDirectedEdges(3, [][2]int32{{0, 1}})
	if _, err := AppendDirected(d, []Edge{{U: 1, V: 1}}, 3); err == nil {
		t.Error("directed self loop accepted")
	}
}

// BenchmarkAppendUndirected times both append strategies for batches of
// a growing share of m on a uniform random graph; it places freezeShare.
func BenchmarkAppendUndirected(b *testing.B) {
	const n, m = 100_000, 500_000
	rng := rand.New(rand.NewSource(1))
	bld := NewBuilder(n)
	for len(bld.edges) < m {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			_ = bld.AddEdge(u, v)
		}
	}
	g, err := bld.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	for _, share := range []int{1024, 64, 16, 8, 4, 2} {
		batch := randomBatch(rng, n, n, m/share)
		for _, s := range []struct {
			name string
			fn   func(*Undirected, []Edge, int, bool) (*Undirected, error)
		}{{"splice", spliceUndirected}, {"refreeze", refreezeUndirected}} {
			b.Run(fmt.Sprintf("delta=m/%d/%s", share, s.name), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := s.fn(g, batch, n, false); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
