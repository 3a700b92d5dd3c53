package serve

import (
	"math/rand/v2"
	"net/http/httptest"
	"testing"

	ds "densestream"
)

// benchProblems is the /solve request mix the load driver cycles
// through: an eps sweep over the undirected objective.
func benchProblems() []ds.Problem {
	epsSweep := []float64{0.1, 0.25, 0.5, 1, 2}
	ps := make([]ds.Problem, 0, len(epsSweep))
	for _, eps := range epsSweep {
		ps = append(ps, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: eps})
	}
	return ps
}

func benchServer(b *testing.B) (*Server, *httptest.Server) {
	b.Helper()
	s := New(Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	n := 3000
	if _, err := s.Registry().Register("bench", false, false, testEdges(n, 5*n, 30, 21), 0); err != nil {
		b.Fatalf("registering bench graph: %v", err)
	}
	return s, ts
}

func driveOnce(b *testing.B, ts *httptest.Server, requests, concurrency int, noCache bool) *DriveResult {
	b.Helper()
	res, err := Drive(DriveConfig{
		BaseURL:     ts.URL,
		Graph:       "bench",
		Problems:    benchProblems(),
		Requests:    requests,
		Concurrency: concurrency,
		NoCache:     noCache,
		Client:      ts.Client(),
	})
	if err != nil {
		b.Fatalf("drive: %v", err)
	}
	if res.Errors > 0 {
		b.Fatalf("%d/%d drive requests failed", res.Errors, res.Requests)
	}
	return res
}

// BenchmarkServeSolveCached measures the serving overhead of the warm
// path: every request after the first cycle is an LRU cache hit, so the
// numbers are queueing + HTTP + cache lookup, not solver time.
func BenchmarkServeSolveCached(b *testing.B) {
	_, ts := benchServer(b)
	driveOnce(b, ts, len(benchProblems()), 1, false) // warm the cache
	b.ResetTimer()
	var last *DriveResult
	for i := 0; i < b.N; i++ {
		last = driveOnce(b, ts, 256, 8, false)
	}
	b.ReportMetric(last.QPS, "qps")
	b.ReportMetric(float64(last.P99.Nanoseconds()), "p99-ns")
}

// BenchmarkServeSolveUncached measures the full solve path end to end:
// every request bypasses the cache and runs a fresh peel.
func BenchmarkServeSolveUncached(b *testing.B) {
	_, ts := benchServer(b)
	b.ResetTimer()
	var last *DriveResult
	for i := 0; i < b.N; i++ {
		last = driveOnce(b, ts, 32, 4, true)
	}
	b.ReportMetric(last.QPS, "qps")
	b.ReportMetric(float64(last.P99.Nanoseconds()), "p99-ns")
}

// BenchmarkServeAppend measures the registry's streaming-ingest path on
// a ChungLu graph of 100k nodes and 500k edges: each op appends a
// 32-edge batch and builds the next snapshot from the previous one.
func BenchmarkServeAppend(b *testing.B) {
	const n = 100_000
	g, err := ds.GenerateChungLu(n, 500_000, 2.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	edges := make([]Edge, 0, g.NumEdges())
	g.Edges(func(u, v int32, _ float64) bool {
		edges = append(edges, Edge{U: u, V: v, W: 1})
		return true
	})
	reg := NewRegistry()
	if _, err := reg.Register("g", false, false, edges, n); err != nil {
		b.Fatal(err)
	}
	if _, err := reg.Snapshot("g"); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	batch := make([]Edge, 32)
	b.ReportAllocs()
	for b.Loop() {
		for i := range batch {
			u, v := int32(rng.IntN(n)), int32(rng.IntN(n-1))
			if v >= u {
				v++
			}
			batch[i] = Edge{U: u, V: v, W: 1}
		}
		if _, err := reg.Append("g", batch); err != nil {
			b.Fatal(err)
		}
		if _, err := reg.Snapshot("g"); err != nil {
			b.Fatal(err)
		}
	}
}
