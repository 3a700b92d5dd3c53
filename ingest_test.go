package densestream_test

import (
	"context"
	"encoding/binary"
	"errors"
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
