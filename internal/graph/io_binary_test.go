package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"densestream/internal/edgeio"
)

// writeBSG1 writes edges verbatim (self loops and repeats included) as
// a binary columnar file and returns its path.
func writeBSG1(t *testing.T, edges []Edge, weighted bool) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.bsg")
	w, err := edgeio.CreateBinary(path, weighted)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		w.AppendWeighted(edgeio.WeightedEdge{U: e.U, V: e.V, Weight: e.Weight})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// setHeaderNodes overwrites the node count in a binary file's header.
func setHeaderNodes(t *testing.T, path string, nodes uint64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(data[8:16], nodes)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeText writes edges as a text edge list with the same ids.
func writeText(t *testing.T, edges []Edge, weighted bool) string {
	t.Helper()
	var sb strings.Builder
	for _, e := range edges {
		if weighted {
			fmt.Fprintf(&sb, "%d %d %v\n", e.U, e.V, e.Weight)
		} else {
			fmt.Fprintf(&sb, "%d %d\n", e.U, e.V)
		}
	}
	return writeTemp(t, sb.String())
}

// scatteredEdges is randomEdges over ids spread across [0, 7n), with a
// few self loops, so first-seen relabelling has work to do.
func scatteredEdges(n, m int, seed int64) []Edge {
	edges := randomEdges(n, m, seed)
	for i := range edges {
		edges[i].U = edges[i].U*7 + 3
		edges[i].V = edges[i].V*7 + 3
		if i%97 == 0 {
			edges[i].V = edges[i].U
		}
	}
	return edges
}

// TestBinaryLoadMatchesText checks a BSG1 file and the text edge list
// with the same ids load into identical graphs and labels, for
// undirected, weighted and directed loads.
func TestBinaryLoadMatchesText(t *testing.T) {
	edges := scatteredEdges(400, 5000, 11)
	for _, weighted := range []bool{false, true} {
		bin, txt := writeBSG1(t, edges, weighted), writeText(t, edges, weighted)
		got, glm, err := ReadUndirectedFile(bin, weighted, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, wlm, err := ReadUndirectedFile(txt, weighted, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("weighted=%v: binary graph differs from text", weighted)
		}
		checkLabelMapsAgree(t, glm, wlm)
	}
	bin, txt := writeBSG1(t, edges, false), writeText(t, edges, false)
	got, glm, err := ReadDirectedFile(bin, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, wlm, err := ReadDirectedFile(txt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("binary directed graph differs from text")
	}
	checkLabelMapsAgree(t, glm, wlm)
}

// checkLabelMapsAgree checks Label, Lookup and Len agree for every id,
// that ID returns an existing label's id, and that interning a new label
// after the load agrees too.
func checkLabelMapsAgree(t *testing.T, bin, txt *LabelMap) {
	t.Helper()
	if bin.Len() != txt.Len() {
		t.Fatalf("Len %d, text %d", bin.Len(), txt.Len())
	}
	for id := int32(0); int(id) < txt.Len(); id++ {
		if bin.Label(id) != txt.Label(id) {
			t.Fatalf("Label(%d) = %q, text %q", id, bin.Label(id), txt.Label(id))
		}
	}
	for id := int32(0); int(id) < txt.Len(); id++ {
		got, ok := bin.Lookup(txt.Label(id))
		want, wok := txt.Lookup(txt.Label(id))
		if got != want || ok != wok || got != id {
			t.Fatalf("Lookup(%q) = %d,%v, text %d,%v", txt.Label(id), got, ok, want, wok)
		}
	}
	if last := int32(txt.Len() - 1); last >= 0 && bin.ID(txt.Label(last)) != last {
		t.Fatalf("ID(%q) did not return the existing id %d", txt.Label(last), last)
	}
	if _, ok := bin.Lookup("new"); ok {
		t.Fatal(`Lookup("new") found a label never interned`)
	}
	if got, want := bin.ID("new"), txt.ID("new"); got != want || bin.Len() != txt.Len() {
		t.Fatalf(`ID("new") = %d (Len %d), text %d (Len %d)`, got, bin.Len(), want, txt.Len())
	}
	for id := int32(0); int(id) < txt.Len(); id++ {
		if bin.Label(id) != txt.Label(id) {
			t.Fatalf("after ID: Label(%d) = %q, text %q", id, bin.Label(id), txt.Label(id))
		}
	}
}

// TestBinaryRejectsOutOfRangeIDs checks a header that undercounts the
// nodes is an ErrNodeRange error on both resident loaders.
func TestBinaryRejectsOutOfRangeIDs(t *testing.T) {
	path := writeBSG1(t, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, false)
	setHeaderNodes(t, path, 3)
	if _, _, err := ReadUndirectedFile(path, false, 1); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("undirected: want ErrNodeRange, got %v", err)
	}
	if _, _, err := ReadDirectedFile(path, 1); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("directed: want ErrNodeRange, got %v", err)
	}
}

// TestBinarySparseHeaderMatchesDense checks the two remap layouts: the
// same edges under a header that fits the slice remap and under one
// declaring 2^31 nodes (the map remap) give the same graph and labels.
func TestBinarySparseHeaderMatchesDense(t *testing.T) {
	edges := scatteredEdges(300, 3000, 13)
	dense := writeBSG1(t, edges, true)
	sparse := writeBSG1(t, edges, true)
	setHeaderNodes(t, sparse, 1<<31)
	for _, weighted := range []bool{false, true} {
		want, wlm, err := ReadUndirectedFile(dense, weighted, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, glm, err := ReadUndirectedFile(sparse, weighted, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("weighted=%v: sparse-header graph differs", weighted)
		}
		checkLabelMapsAgree(t, glm, wlm)
	}
	want, _, err := ReadDirectedFile(dense, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadDirectedFile(sparse, 1)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("sparse-header directed graph differs (err %v)", err)
	}
}

// TestBinaryHugeHeaderSmallAlloc checks a one-edge file declaring 2^31
// nodes loads without allocating by the header.
func TestBinaryHugeHeaderSmallAlloc(t *testing.T) {
	path := writeBSG1(t, []Edge{{U: 0, V: math.MaxInt32, Weight: 1}}, false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, lm, err := ReadUndirectedFile(path, false, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 || lm.Label(1) != "2147483647" {
		t.Fatalf("got n=%d m=%d label %q", g.NumNodes(), g.NumEdges(), lm.Label(1))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Fatalf("load allocated %d bytes, want < 16 MiB", alloc)
	}
}

// TestBinaryLoadAllocsPerFile checks a BSG1 load allocates per file,
// not per edge or per block: the same count at 10k edges (2 blocks) and
// 200k edges (25 blocks). Under the race detector sync.Pool drops items
// at random, so there a few pool misses may separate the two counts.
func TestBinaryLoadAllocsPerFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200k-edge file")
	}
	allocs := func(m int) float64 {
		g := freezeUndirected(t, m/5, randomEdges(m/5, m, 3), false)
		path := filepath.Join(t.TempDir(), "g.bsg")
		if err := WriteUndirectedBinary(path, g); err != nil {
			t.Fatal(err)
		}
		// A GC between runs empties the edgeio buffer pools, which is a
		// per-collection cost rather than a per-edge one.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(5, func() {
			if _, _, err := ReadUndirectedFile(path, false, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10000), allocs(200000)
	if large != small && !(raceEnabled && large <= small+4) {
		t.Fatalf("allocations grow with the edge count: %v at 10k edges, %v at 200k", small, large)
	}
}

// FuzzReadUndirectedBinary feeds arbitrary bytes to the BSG1 resident
// loaders. Each must return an error or a graph that passes Validate
// with one label per node, and must never panic.
func FuzzReadUndirectedBinary(f *testing.F) {
	path := filepath.Join(f.TempDir(), "f.bsg") // inputs run one at a time per process
	f.Fuzz(func(t *testing.T, data []byte, weighted bool) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if g, lm, err := readUndirectedBinary(path, weighted); err == nil {
			if err := g.Validate(); err != nil {
				t.Fatalf("undirected: %v", err)
			}
			if lm.Len() != g.NumNodes() {
				t.Fatalf("undirected: %d labels for %d nodes", lm.Len(), g.NumNodes())
			}
		}
		if g, lm, err := readDirectedBinary(path); err == nil {
			if err := g.Validate(); err != nil {
				t.Fatalf("directed: %v", err)
			}
			if lm.Len() != g.NumNodes() {
				t.Fatalf("directed: %d labels for %d nodes", lm.Len(), g.NumNodes())
			}
		}
	})
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool
