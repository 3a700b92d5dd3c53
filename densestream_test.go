package densestream_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	ds "densestream"
	"densestream/internal/flow"
	"densestream/internal/gen"
)

// cliqueOnPath returns a K6 (density 2.5) attached to a sparse path
// through nodes 5..n-1.
func cliqueOnPath(t *testing.T, n int) *ds.UndirectedGraph {
	t.Helper()
	b := ds.NewBuilder(n)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if err := b.AddEdge(int32(i), int32(j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 5; i < n-1; i++ {
		if err := b.AddEdge(int32(i), int32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// disjointCliques returns the disjoint union of cliques of the given
// sizes.
func disjointCliques(t *testing.T, sizes ...int) *ds.UndirectedGraph {
	t.Helper()
	n := 0
	for _, s := range sizes {
		n += s
	}
	b := ds.NewBuilder(n)
	base := 0
	for _, s := range sizes {
		for i := base; i < base+s; i++ {
			for j := i + 1; j < base+s; j++ {
				if err := b.AddEdge(int32(i), int32(j)); err != nil {
					t.Fatal(err)
				}
			}
		}
		base += s
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// allBackends is every backend; each bound table below keeps the ones
// Problem.Validate accepts for the objective at hand.
var allBackends = []ds.Backend{ds.BackendPeel, ds.BackendStream, ds.BackendStreamSketched, ds.BackendMapReduce}

// passBound is the paper's pass bound ⌈log_{1+ε} n⌉ + 2 (Lemma 4 and
// Lemma 11), doubled in the logarithm for the directed peel (Lemma 13).
func passBound(n int, eps float64, directed bool) int {
	b := int(math.Ceil(math.Log(float64(n)) / math.Log(1+eps)))
	if directed {
		b *= 2
	}
	return b + 2
}

// TestPublicAPIPipeline checks the paper's guarantees through Solve for
// every undirected objective on every backend Validate accepts, against
// exact optima that do not share code with the engines: ρ(S̃) ≥
// OPT/(2+2ε) against max-flow, |S̃| ≥ k and ρ(S̃) ≥ OPT_k/(3+3ε) against
// brute force, and the O(log_{1+ε} n) pass bound. The sketched backend
// carries no guarantee and only has to return a set.
func TestPublicAPIPipeline(t *testing.T) {
	star, err := gen.Star(12)
	if err != nil {
		t.Fatal(err)
	}
	regular, err := gen.RegularUnion(2)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *ds.UndirectedGraph
	}{
		{"clique+path", cliqueOnPath(t, 16)},
		{"star", star},
		{"regular-union", regular},
		{"K4+K5", disjointCliques(t, 4, 5)},
	}
	sketchCfg := ds.SketchConfig{Tables: 5, Buckets: 512, Seed: 1}
	ran := map[ds.Objective]map[ds.Backend]bool{}
	for _, tc := range graphs {
		g, n := tc.g, tc.g.NumNodes()
		opt, err := flow.ExactDensest(g)
		if err != nil {
			t.Fatal(err)
		}
		// checkSet asserts the reported density is the density of the
		// reported set, and never above the optimum.
		checkSet := func(label string, sol *ds.Solution) {
			t.Helper()
			d, err := g.SubgraphDensity(sol.Set)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if math.Abs(d-sol.Density) > 1e-9 || sol.Density > opt.Density+1e-9 {
				t.Fatalf("%s: reported ρ=%v, set density %v, OPT %v", label, sol.Density, d, opt.Density)
			}
		}
		for _, eps := range []float64{0, 0.5, 2} {
			problems := []ds.Problem{
				{Objective: ds.ObjectiveUndirected, Eps: eps},
				{Objective: ds.ObjectiveWeighted, Eps: eps},
				{Objective: ds.ObjectiveExact},
				{Objective: ds.ObjectiveGreedy},
			}
			for _, k := range []int{2, n / 2, n - 1} {
				problems = append(problems, ds.Problem{Objective: ds.ObjectiveAtLeastK, K: k, Eps: eps})
			}
			for _, p := range problems {
				for _, be := range allBackends {
					p.Backend, p.Graph = be, g
					if p.Validate() != nil {
						continue
					}
					if ran[p.Objective] == nil {
						ran[p.Objective] = map[ds.Backend]bool{}
					}
					ran[p.Objective][be] = true
					label := fmt.Sprintf("%s eps=%v k=%d %s/%s", tc.name, eps, p.K, p.Objective, be)
					sol := solveOK(t, p, ds.WithSketch(sketchCfg))
					if be == ds.BackendStreamSketched {
						if len(sol.Set) == 0 {
							t.Fatalf("%s: empty set", label)
						}
						if sol.SketchMemoryWords != sketchCfg.Tables*sketchCfg.Buckets {
							t.Fatalf("%s: sketch memory = %d", label, sol.SketchMemoryWords)
						}
						continue
					}
					checkSet(label, sol)
					switch p.Objective {
					case ds.ObjectiveExact:
						if math.Abs(sol.Density-opt.Density) > 1e-9 {
							t.Fatalf("%s: ρ=%v, OPT %v", label, sol.Density, opt.Density)
						}
					case ds.ObjectiveGreedy:
						if sol.Density < opt.Density/2-1e-9 {
							t.Fatalf("%s: ρ=%v below OPT/2 = %v", label, sol.Density, opt.Density/2)
						}
					case ds.ObjectiveAtLeastK:
						if len(sol.Set) < p.K {
							t.Fatalf("%s: |S̃| = %d < k", label, len(sol.Set))
						}
						// The brute-force optimum is exponential in n.
						if n <= 16 {
							_, optK, err := flow.BruteForceDensestAtLeastK(g, p.K)
							if err != nil {
								t.Fatal(err)
							}
							if sol.Density < optK/(3+3*eps)-1e-9 {
								t.Fatalf("%s: ρ=%v below OPT_k/(3+3ε) = %v", label, sol.Density, optK/(3+3*eps))
							}
						}
					default:
						if sol.Density < opt.Density/(2+2*eps)-1e-9 {
							t.Fatalf("%s: ρ=%v below OPT/(2+2ε) = %v", label, sol.Density, opt.Density/(2+2*eps))
						}
					}
					if eps > 0 && p.Objective != ds.ObjectiveExact && p.Objective != ds.ObjectiveGreedy {
						if sol.Passes > passBound(n, eps, false) {
							t.Fatalf("%s: %d passes > bound %d", label, sol.Passes, passBound(n, eps, false))
						}
					}
				}
			}
		}
	}
	want := map[ds.Objective]int{ds.ObjectiveUndirected: 4, ds.ObjectiveWeighted: 2, ds.ObjectiveAtLeastK: 3, ds.ObjectiveExact: 1, ds.ObjectiveGreedy: 1}
	for obj, backends := range want {
		if len(ran[obj]) != backends {
			t.Errorf("%s ran on %d backends, want %d", obj, len(ran[obj]), backends)
		}
	}

	g := cliqueOnPath(t, 16)
	_, coreDensity, err := ds.BestCore(g)
	if err != nil {
		t.Fatal(err)
	}
	if coreDensity < 2.5/2-1e-9 {
		t.Fatalf("best core %v below 2-approx", coreDensity)
	}
}

// directedBlock returns a complete s→t bipartite block on nodes
// 0..s-1 → s..s+t-1 followed by a directed path through the remaining
// nodes up to n-1.
func directedBlock(t *testing.T, s, tt, n int) *ds.DirectedGraph {
	t.Helper()
	b := ds.NewDirectedBuilder(n)
	for u := 0; u < s; u++ {
		for v := s; v < s+tt; v++ {
			if err := b.AddEdge(int32(u), int32(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := s + tt; i < n-1; i++ {
		if err := b.AddEdge(int32(i), int32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPublicAPIDirected is TestPublicAPIPipeline for Algorithm 3: at
// the optimal ratio c = |S*|/|T*| every backend meets ρ ≥ OPT/(2+2ε)
// against the brute-force optimum, the powers-of-δ sweep meets it up to
// the factor δ, and both stay within 2⌈log_{1+ε} n⌉ + 2 passes.
func TestPublicAPIDirected(t *testing.T) {
	gnm, err := gen.GnmDirected(9, 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *ds.DirectedGraph
	}{
		{"block+path", directedBlock(t, 3, 4, 10)},
		{"out-star", directedBlock(t, 1, 7, 8)},
		{"gnm", gnm},
	}
	const delta = 2.0
	ran := map[ds.Objective]map[ds.Backend]bool{}
	for _, tc := range graphs {
		g, n := tc.g, tc.g.NumNodes()
		sOpt, tOpt, opt, err := flow.BruteForceDirectedDensest(g)
		if err != nil {
			t.Fatal(err)
		}
		c := float64(len(sOpt)) / float64(len(tOpt))
		for _, eps := range []float64{0, 0.5, 2} {
			problems := []ds.Problem{
				{Objective: ds.ObjectiveDirected, C: c, Eps: eps},
				{Objective: ds.ObjectiveDirectedSweep, Delta: delta, Eps: eps},
			}
			for _, p := range problems {
				for _, be := range allBackends {
					p.Backend, p.Directed = be, g
					if p.Validate() != nil {
						continue
					}
					if ran[p.Objective] == nil {
						ran[p.Objective] = map[ds.Backend]bool{}
					}
					ran[p.Objective][be] = true
					label := fmt.Sprintf("%s eps=%v %s/%s", tc.name, eps, p.Objective, be)
					sol := solveOK(t, p)
					d, err := g.SubgraphDensity(sol.S, sol.T)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if math.Abs(d-sol.Density) > 1e-9 || sol.Density > opt+1e-9 {
						t.Fatalf("%s: reported ρ=%v, pair density %v, OPT %v", label, sol.Density, d, opt)
					}
					factor := 2 + 2*eps
					if p.Objective == ds.ObjectiveDirectedSweep {
						factor *= delta
					}
					if sol.Density < opt/factor-1e-9 {
						t.Fatalf("%s: ρ=%v below OPT/%v = %v", label, sol.Density, factor, opt/factor)
					}
					if eps > 0 && sol.Passes > passBound(n, eps, true) {
						t.Fatalf("%s: %d passes > bound %d", label, sol.Passes, passBound(n, eps, true))
					}
				}
			}
		}
	}
	want := map[ds.Objective]int{ds.ObjectiveDirected: 3, ds.ObjectiveDirectedSweep: 2}
	for obj, backends := range want {
		if len(ran[obj]) != backends {
			t.Errorf("%s ran on %d backends, want %d", obj, len(ran[obj]), backends)
		}
	}
}

func TestPublicAPIReadWrite(t *testing.T) {
	in := "# toy graph\na b\nb c\nc a\n"
	g, lm, err := ds.ReadUndirected(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if id, ok := lm.Lookup("b"); !ok || lm.Label(id) != "b" {
		t.Fatal("label map broken")
	}
	var buf bytes.Buffer
	if err := ds.WriteUndirected(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ds.ReadUndirected(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 3 {
		t.Fatalf("round trip m=%d", g2.NumEdges())
	}

	din := "x y\ny z\n"
	dg, _, err := ds.ReadDirected(strings.NewReader(din))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := ds.WriteDirected(&buf, dg); err != nil {
		t.Fatal(err)
	}
	if s := ds.StatsDirected(dg); s.Edges != 2 {
		t.Fatalf("directed stats: %+v", s)
	}
	if s := ds.Stats(g); s.Nodes != 3 || s.MaxDegree != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	g, err := ds.GenerateGnm(100, 300, 1)
	if err != nil || g.NumNodes() != 100 {
		t.Fatalf("Gnm: %v", err)
	}
	cl, err := ds.GenerateChungLu(100, 300, 2.2, 1)
	if err != nil || cl.NumNodes() != 100 {
		t.Fatalf("ChungLu: %v", err)
	}
	cld, err := ds.GenerateChungLuDirected(100, 300, 2.2, 1)
	if err != nil || cld.NumNodes() != 100 {
		t.Fatalf("ChungLuDirected: %v", err)
	}
	rm, err := ds.GenerateRMAT(8, 500, 1)
	if err != nil || rm.NumNodes() != 256 {
		t.Fatalf("RMAT: %v", err)
	}
	pd, planted, err := ds.GeneratePlantedDense(200, 400, 2.2, 20, 0.9, 1)
	if err != nil || pd == nil || len(planted) != 20 {
		t.Fatalf("PlantedDense: %v", err)
	}
	cg, assign, err := ds.GenerateCommunities([]int{30, 30}, 0.3, 0.02, 1)
	if err != nil || cg.NumNodes() != 60 || len(assign) != 60 {
		t.Fatalf("Communities: %v", err)
	}
	lf, farm, targets, err := ds.GenerateLinkFarm(8, 500, 20, 3, 0.2, 1)
	if err != nil || lf == nil || len(farm) != 20 || len(targets) != 3 {
		t.Fatalf("LinkFarm: %v", err)
	}
}

func TestPublicAPIWeighted(t *testing.T) {
	b := ds.NewBuilder(6)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			_ = b.AddWeightedEdge(int32(i), int32(j), 5)
		}
	}
	_ = b.AddWeightedEdge(3, 4, 0.1)
	_ = b.AddWeightedEdge(4, 5, 0.1)
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	r := solveOK(t, ds.Problem{Objective: ds.ObjectiveWeighted, Backend: ds.BackendPeel, Eps: 0.5, Graph: g})
	if r.Density < 15.0/3/3 {
		t.Fatalf("weighted density %v", r.Density)
	}
	// Greedy peels by weighted degree on a weighted graph.
	gw := solveOK(t, ds.Problem{Objective: ds.ObjectiveGreedy, Graph: g})
	if gw.Density < 15.0/3/2-1e-9 {
		t.Fatalf("greedy weighted %v", gw.Density)
	}
}
