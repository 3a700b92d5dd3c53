package densestream_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	ds "densestream"
	"densestream/internal/edgeio"
	"densestream/internal/graph"
)

// TestSolveRejectsUndercountedBinaryHeader runs one corrupt BSG1 file —
// its header declares 3 nodes while an edge names node 3 — through every
// file backend. The streaming backend and both resident loaders must
// all refuse it with ErrNodeRange rather than return a Solution.
func TestSolveRejectsUndercountedBinaryHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.bsg")
	w, err := edgeio.CreateBinary(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []edgeio.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 2}} {
		w.Append(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(data[8:16], 3)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []ds.Backend{ds.BackendStream, ds.BackendPeel, ds.BackendMapReduce} {
		sol, err := ds.Solve(context.Background(), ds.Problem{Objective: ds.ObjectiveUndirected, Backend: backend, Eps: 0.5, Path: path})
		if !errors.Is(err, graph.ErrNodeRange) {
			t.Errorf("backend %v: want ErrNodeRange, got solution %v, error %v", backend, sol, err)
		}
	}
}

// writeEdgesBSG1 writes edges verbatim, in the given order, as a BSG1
// file with 256 edges per block, and overwrites its header node count
// with nodes when nodes > 0.
func writeEdgesBSG1(t *testing.T, name string, edges []edgeio.Edge, nodes uint64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	w, err := edgeio.CreateBinary(path, false)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockEdges(256)
	for _, e := range edges {
		w.Append(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if nodes > 0 {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(data[8:16], nodes)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// TestPeelFileMetamorphic checks the peel Solve of a BSG1 file keeps
// its density bits and |S| when the file's node ids are permuted, its
// edges are shuffled (orientation included), or its header is padded
// with isolated nodes — below and past the sparse-header threshold — at
// one and two workers.
func TestPeelFileMetamorphic(t *testing.T) {
	g, err := ds.GenerateChungLu(3000, 20000, 2.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	var edges []edgeio.Edge
	g.Edges(func(u, v int32, _ float64) bool {
		edges = append(edges, edgeio.Edge{U: u, V: v})
		return true
	})
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(n)
	permuted := make([]edgeio.Edge, len(edges))
	for i, e := range edges {
		permuted[i] = edgeio.Edge{U: int32(perm[e.U]), V: int32(perm[e.V])}
	}
	shuffled := append([]edgeio.Edge(nil), edges...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for i := range shuffled {
		if rng.Intn(2) == 0 {
			shuffled[i].U, shuffled[i].V = shuffled[i].V, shuffled[i].U
		}
	}
	files := []struct {
		name string
		path string
	}{
		{"base", writeEdgesBSG1(t, "base.bsg", edges, 0)},
		{"permuted", writeEdgesBSG1(t, "permuted.bsg", permuted, 0)},
		{"shuffled", writeEdgesBSG1(t, "shuffled.bsg", shuffled, 0)},
		{"padded", writeEdgesBSG1(t, "padded.bsg", edges, uint64(n+5000))},
		{"padded-sparse", writeEdgesBSG1(t, "sparse.bsg", edges, math.MaxInt32+1)},
	}
	var want *ds.Solution
	for _, f := range files {
		for _, workers := range []int{1, 2} {
			sol := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: 0.1, Path: f.path}, ds.WithWorkers(workers))
			if want == nil {
				want = sol
				if len(want.Set) == 0 || want.Density <= float64(len(edges))/float64(n) {
					t.Fatalf("base solve found no dense subgraph: %v", want.Density)
				}
				continue
			}
			label := fmt.Sprintf("%s workers=%d", f.name, workers)
			if math.Float64bits(sol.Density) != math.Float64bits(want.Density) || len(sol.Set) != len(want.Set) {
				t.Fatalf("%s: density %v |S| %d, base %v |S| %d", label, sol.Density, len(sol.Set), want.Density, len(want.Set))
			}
		}
	}
}
