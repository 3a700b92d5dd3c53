package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestReadUndirectedBasic(t *testing.T) {
	in := `# a comment
% another comment style
1 2
2 3
1	3
`
	g, lm, err := ReadUndirected(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if lm.Len() != 3 {
		t.Fatalf("labels = %d", lm.Len())
	}
	id, ok := lm.Lookup("2")
	if !ok {
		t.Fatal("label 2 not interned")
	}
	if lm.Label(id) != "2" {
		t.Fatalf("round trip label = %q", lm.Label(id))
	}
}

func TestReadUndirectedWeighted(t *testing.T) {
	in := "a b 2.5\nb c 1.5\n"
	g, _, err := ReadUndirected(strings.NewReader(in), true)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("graph not weighted")
	}
	if w := g.TotalWeight(); w != 4.0 {
		t.Fatalf("total weight = %v", w)
	}
}

func TestReadUndirectedSkipsSelfLoops(t *testing.T) {
	in := "1 1\n1 2\n2 2\n"
	g, _, err := ReadUndirected(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("m=%d, want 1 (self loops skipped)", g.NumEdges())
	}
}

func TestReadUndirectedMalformed(t *testing.T) {
	cases := []struct {
		name, in string
		weighted bool
	}{
		{"one field", "justone\n", false},
		{"bad weight", "a b xyz\n", true},
		{"negative weight", "a b -3\n", true},
		{"zero weight", "a b 0\n", true},
	}
	for _, tc := range cases {
		_, _, err := ReadUndirected(strings.NewReader(tc.in), tc.weighted)
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: got %v, want *ParseError", tc.name, err)
			continue
		}
		if pe.Line != 1 {
			t.Errorf("%s: line = %d, want 1", tc.name, pe.Line)
		}
	}
}

func TestReadDirectedBasic(t *testing.T) {
	in := "u v\nv w\nw u\nu v\n" // duplicate edge dedups
	g, lm, err := ReadDirected(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if lm.Len() != 3 {
		t.Fatalf("labels = %d", lm.Len())
	}
}

func TestWriteReadRoundTripUndirected(t *testing.T) {
	g := MustFromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2}})
	var buf bytes.Buffer
	if err := WriteUndirected(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadUndirected(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
}

func TestWriteReadRoundTripWeighted(t *testing.T) {
	b := NewBuilder(3)
	_ = b.AddWeightedEdge(0, 1, 2.5)
	_ = b.AddWeightedEdge(1, 2, 0.25)
	g, _ := b.Freeze()
	var buf bytes.Buffer
	if err := WriteUndirected(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadUndirected(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if g2.TotalWeight() != g.TotalWeight() {
		t.Fatalf("weight round trip: %v vs %v", g2.TotalWeight(), g.TotalWeight())
	}
}

func TestWriteReadRoundTripDirected(t *testing.T) {
	g := MustFromDirectedEdges(4, [][2]int32{{0, 1}, {1, 0}, {2, 3}, {3, 1}})
	var buf bytes.Buffer
	if err := WriteDirected(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadDirected(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: n=%d m=%d", g2.NumNodes(), g2.NumEdges())
	}
}

// TestWriteMatchesFmt checks the writers emit exactly the bytes of
// fmt's "%d\t%d\n" and "%d\t%d\t%g\n" lines, weights included.
func TestWriteMatchesFmt(t *testing.T) {
	weights := []float64{1e+06, 0.1, 3, 2.5, 1e-07, 123456.789, 1e21, 5e-324, math.MaxFloat64, 1.0 / 3}
	b := NewBuilder(len(weights) + 1)
	for i, w := range weights {
		if err := b.AddWeightedEdge(int32(i), int32(i+1), w); err != nil {
			t.Fatal(err)
		}
	}
	wg, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	wg.Edges(func(u, v int32, w float64) bool {
		fmt.Fprintf(&want, "%d\t%d\t%g\n", u, v, w)
		return true
	})
	var got bytes.Buffer
	if err := WriteUndirected(&got, wg); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("weighted:\n%s\nwant:\n%s", got.String(), want.String())
	}

	g := freezeUndirected(t, 2000, randomEdges(2000, 20000, 4), false)
	want.Reset()
	g.Edges(func(u, v int32, _ float64) bool {
		fmt.Fprintf(&want, "%d\t%d\n", u, v)
		return true
	})
	got.Reset()
	if err := WriteUndirected(&got, g); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("unweighted output differs from fmt")
	}

	d := freezeDirected(t, 2000, randomEdges(2000, 20000, 6))
	want.Reset()
	d.Edges(func(u, v int32) bool {
		fmt.Fprintf(&want, "%d\t%d\n", u, v)
		return true
	})
	got.Reset()
	if err := WriteDirected(&got, d); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("directed output differs from fmt")
	}
}

func TestStats(t *testing.T) {
	g := MustFromEdges(4, [][2]int32{{0, 1}, {0, 2}, {0, 3}})
	s := UndirectedStats(g)
	if s.MaxDegree != 3 || s.MinDegree != 1 {
		t.Fatalf("stats degrees: %+v", s)
	}
	if s.AvgDegree != 1.5 {
		t.Fatalf("avg degree = %v", s.AvgDegree)
	}
	dg := MustFromDirectedEdges(3, [][2]int32{{0, 1}, {0, 2}})
	ds := DirectedStats(dg)
	if ds.MaxDegree != 2 || ds.Edges != 2 {
		t.Fatalf("directed stats: %+v", ds)
	}
	if es := UndirectedStats(&Undirected{}); es.Nodes != 0 {
		t.Fatalf("empty stats: %+v", es)
	}
	if es := DirectedStats(&Directed{}); es.Nodes != 0 {
		t.Fatalf("empty directed stats: %+v", es)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := MustFromEdges(4, [][2]int32{{0, 1}, {0, 2}, {0, 3}})
	degs, counts := DegreeHistogram(g)
	if len(degs) != 2 || degs[0] != 1 || degs[1] != 3 {
		t.Fatalf("degrees = %v", degs)
	}
	if counts[0] != 3 || counts[1] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}
