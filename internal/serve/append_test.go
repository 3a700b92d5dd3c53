package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	ds "densestream"
)

// TestDynamicRepeatedBatchNeverServesStale inserts a batch, deletes it
// and inserts it again. Each step must carry a fresh fingerprint, and a
// cacheable solve that misses the dynamic fast path must answer with
// the bytes of a cold solve on the live edges, never with a result
// cached at an earlier version.
func TestDynamicRepeatedBatchNeverServesStale(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, SolveWorkers: 2})
	edges := testEdges(60, 300, 10, 3)
	rows := make([][]float64, len(edges))
	for i, e := range edges {
		rows[i] = []float64{float64(e.U), float64(e.V)}
	}
	resp, data := doJSON(t, http.MethodPut, ts.URL+"/graphs/dyn", map[string]any{
		"dynamic": true, "eps": 0.3, "edges": rows,
	})
	var info GraphInfo
	if err := json.Unmarshal(data, &info); err != nil || resp.StatusCode != 200 {
		t.Fatalf("PUT dynamic graph: status=%d err=%v body=%s", resp.StatusCode, err, data)
	}
	seen := map[string]int64{info.Fingerprint: info.Version}

	batch := [][]float64{{11, 12}, {12, 13}, {11, 13}}
	solve := func(noCache bool) (string, []byte) {
		resp, data := doJSON(t, http.MethodPost, ts.URL+"/solve", map[string]any{
			"graph": "dyn", "objective": "AtLeastK", "backend": "Peel", "eps": 0.3, "k": 5, "noCache": noCache,
		})
		if resp.StatusCode != 200 {
			t.Fatalf("solve: status=%d body=%s", resp.StatusCode, data)
		}
		return resp.Header.Get("X-Cache"), data
	}
	var answers []string
	for step, op := range []string{"", "?op=delete", ""} {
		resp, data := doJSON(t, http.MethodPost, ts.URL+"/graphs/dyn/edges"+op, map[string]any{"edges": batch})
		if err := json.Unmarshal(data, &info); err != nil || resp.StatusCode != 200 {
			t.Fatalf("step %d: status=%d err=%v body=%s", step, resp.StatusCode, err, data)
		}
		if v, dup := seen[info.Fingerprint]; dup {
			t.Fatalf("step %d: version %d repeats the fingerprint %s of version %d", step, info.Version, info.Fingerprint, v)
		}
		seen[info.Fingerprint] = info.Version
		cache, got := solve(false)
		_, cold := solve(true)
		if string(got) != string(cold) {
			t.Fatalf("step %d: X-Cache=%s answer differs from a cold solve of the live edges:\n%s\nvs\n%s", step, cache, got, cold)
		}
		answers = append(answers, string(cold))
	}
	if answers[1] == answers[2] {
		t.Fatal("the batch does not change the answer; the test would not see a stale hit")
	}
}

// TestAppendRejectsNonIntegerIDs sends JSON rows whose ids are not
// int32 integers to both the registration and the append endpoint.
func TestAppendRejectsNonIntegerIDs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	before := mustRegister(t, s, "g", false, testEdges(20, 40, 4, 1))
	for _, rows := range [][][]float64{
		{{0, 1}, {1.5, 2.7}},
		{{0, 1}, {3, 4}, {2, 5e9}},
		{{0, 1}, {-3e9, 2}},
	} {
		bad := len(rows) - 1
		for _, req := range []struct{ method, url string }{
			{http.MethodPost, ts.URL + "/graphs/g/edges"},
			{http.MethodPut, ts.URL + "/graphs/h"},
		} {
			resp, data := doJSON(t, req.method, req.url, map[string]any{"edges": rows})
			if resp.StatusCode != 400 {
				t.Fatalf("%s %v: want 400, got %d (%s)", req.method, rows, resp.StatusCode, data)
			}
			if want := "edge " + string(rune('0'+bad)); !strings.Contains(string(data), want) {
				t.Fatalf("%s %v: error does not name %q: %s", req.method, rows, want, data)
			}
		}
	}
	after, err := s.Registry().Info("g")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("rejected appends changed the graph: %+v -> %+v", before, after)
	}
}

// TestNodeCeiling rejects node universes above maxNodes on every route
// that sizes one: a static registration's node count, a static append's
// ids, and a dynamic registration's node count. None of them may wrap
// or allocate.
func TestNodeCeiling(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// 2^32+3 would wrap to 3 nodes through int32.
	resp, data := doJSON(t, http.MethodPut, ts.URL+"/graphs/wrap", map[string]any{
		"nodes": int64(1)<<32 + 3, "edges": [][]float64{{0, 1}},
	})
	if resp.StatusCode != 400 {
		t.Fatalf("static nodes 2^32+3: want 400, got %d (%s)", resp.StatusCode, data)
	}
	if resp, data := doJSON(t, http.MethodPut, ts.URL+"/graphs/big", map[string]any{
		"nodes": maxNodes + 1, "edges": [][]float64{{0, 1}},
	}); resp.StatusCode != 400 {
		t.Fatalf("static nodes maxNodes+1: want 400, got %d (%s)", resp.StatusCode, data)
	}
	if resp, data := doJSON(t, http.MethodPut, ts.URL+"/graphs/g", map[string]any{
		"nodes": maxNodes, "edges": [][]float64{{0, 1}},
	}); resp.StatusCode != 200 {
		t.Fatalf("static nodes maxNodes: want 200, got %d (%s)", resp.StatusCode, data)
	}
	for _, id := range []float64{maxNodes, 1<<31 - 2} {
		if resp, data := doJSON(t, http.MethodPost, ts.URL+"/graphs/g/edges", map[string]any{
			"edges": [][]float64{{0, id}},
		}); resp.StatusCode != 400 {
			t.Fatalf("static append of id %v: want 400, got %d (%s)", id, resp.StatusCode, data)
		}
	}
	if resp, data := putText(t, http.MethodPost, ts.URL+"/graphs/g/edges", fmt.Sprintf("0 %d\n", maxNodes)); resp.StatusCode != 400 {
		t.Fatalf("static text append of id %d: want 400, got %d (%s)", maxNodes, resp.StatusCode, data)
	}
	for _, nodes := range []int64{maxNodes + 1, 1 << 40} {
		if resp, data := doJSON(t, http.MethodPut, ts.URL+"/graphs/dyn", map[string]any{
			"dynamic": true, "nodes": nodes, "edges": [][]float64{{0, 1}},
		}); resp.StatusCode != 400 {
			t.Fatalf("dynamic nodes %d: want 400, got %d (%s)", nodes, resp.StatusCode, data)
		}
	}
}

// TestDynamicPartialBatchBumps feeds a dynamic graph a batch whose
// second edge is bad: the first edge is live, so the descriptor must
// move on even though the request fails.
func TestDynamicPartialBatchBumps(t *testing.T) {
	reg := NewRegistry()
	before, err := reg.RegisterDynamic("dyn", ds.MaintainerConfig{NumNodes: 8, Eps: 0.5}, []Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Append("dyn", []Edge{{U: 2, V: 3}, {U: 4, V: 4}}); err == nil {
		t.Fatal("self loop accepted")
	}
	after, err := reg.Info("dyn")
	if err != nil {
		t.Fatal(err)
	}
	if after.Edges != 2 || after.Version != before.Version+1 || after.Fingerprint == before.Fingerprint {
		t.Fatalf("partial batch: before %+v, after %+v", before, after)
	}
}

// appendGraph is a registry graph under test with its whole edge log.
type appendGraph struct {
	directed, weighted bool
	log                []Edge
}

// freeze is Builder.Freeze over the whole log on n nodes: the graph
// every snapshot must equal.
func (ag *appendGraph) freeze(t *testing.T, n int) (*ds.UndirectedGraph, *ds.DirectedGraph) {
	t.Helper()
	if ag.directed {
		b := ds.NewDirectedBuilder(n)
		for _, e := range ag.log {
			if err := b.AddEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
		g, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		return nil, g
	}
	b := ds.NewBuilder(n)
	for _, e := range ag.log {
		var err error
		if ag.weighted {
			err = b.AddWeightedEdge(e.U, e.V, e.W)
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
	return g, nil
}

// batch draws k edges: fresh pairs, repeats inside the batch, edges
// already in the log, reversed pairs, and ids up to grow past the
// current node count.
func (ag *appendGraph) batch(rng *rand.Rand, nodes, grow, k int) []Edge {
	out := make([]Edge, 0, k)
	for len(out) < k {
		var e Edge
		switch rng.IntN(5) {
		case 0:
			if len(out) > 0 {
				e = out[rng.IntN(len(out))]
				break
			}
			fallthrough
		case 1:
			e = ag.log[rng.IntN(len(ag.log))]
		default:
			e = Edge{U: int32(rng.IntN(nodes + grow)), V: int32(rng.IntN(nodes))}
		}
		if rng.IntN(2) == 0 {
			e.U, e.V = e.V, e.U
		}
		if e.U == e.V {
			continue
		}
		e.W = float64(1+rng.IntN(9)) / 10
		out = append(out, e)
	}
	return out
}

// TestRegistryAppendMatchesFreeze appends random batches to static
// graphs and requires every snapshot to be reflect.DeepEqual to
// Builder.Freeze over the whole concatenated log. Batches are empty,
// small, or large enough to take the freeze fallback, and snapshots
// are skipped now and then so several batches are pending at once.
func TestRegistryAppendMatchesFreeze(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, kind := range []string{"unweighted", "weighted", "directed"} {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, kind), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				rng := rand.New(rand.NewPCG(uint64(procs), uint64(len(kind))))
				ag := &appendGraph{directed: kind == "directed", weighted: kind == "weighted"}
				ag.log = testEdges(50, 300, 8, uint64(procs))
				for i := range ag.log {
					ag.log[i].W = float64(1+i%7) / 10
				}
				reg := NewRegistry()
				if _, err := reg.Register("g", ag.directed, ag.weighted, ag.log, 0); err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 80; step++ {
					info, err := reg.Info("g")
					if err != nil {
						t.Fatal(err)
					}
					k := rng.IntN(12)
					switch step % 10 {
					case 3:
						k = 0
					case 7:
						k = info.Edges/4 + rng.IntN(info.Edges) // past m/16
					}
					batch := ag.batch(rng, info.Nodes, 3, k)
					if _, err := reg.Append("g", batch); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					ag.log = append(ag.log, batch...)
					if rng.IntN(4) == 0 {
						continue
					}
					snap, err := reg.Snapshot("g")
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if want := int(maxNode(ag.log)) + 1; snap.Info.Nodes != want || snap.Info.Edges != len(ag.log) {
						t.Fatalf("step %d: info %+v, want %d nodes and %d edges", step, snap.Info, want, len(ag.log))
					}
					g, d := ag.freeze(t, snap.Info.Nodes)
					if !reflect.DeepEqual(snap.Graph, g) || !reflect.DeepEqual(snap.Directed, d) {
						t.Fatalf("step %d: snapshot differs from Freeze over the log", step)
					}
				}
			})
		}
	}
}

// csrBytes is the size of a snapshot's CSR arrays.
func csrBytes(s *Snapshot) uint64 {
	if s.Directed != nil {
		return 4 * (2*uint64(s.Directed.NumNodes()+1) + 2*uint64(s.Directed.NumEdges()))
	}
	b := 4 * (uint64(s.Graph.NumNodes()+1) + 2*uint64(s.Graph.NumEdges()))
	if s.Graph.Weighted() {
		b += 8 * 2 * uint64(s.Graph.NumEdges())
	}
	return b
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestAppendCostsODelta guards the O(Δ) append: a 32-edge Append on a
// 200k-edge graph allocates under 64 KiB whatever the graph's size, and
// the Snapshot after it allocates about one copy of the new CSR.
func TestAppendCostsODelta(t *testing.T) {
	edges := testEdges(40_000, 200_000, 20, 5)
	for i := range edges {
		edges[i].W = float64(1 + i%3)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	for _, kind := range []string{"unweighted", "weighted", "directed"} {
		reg := NewRegistry()
		if _, err := reg.Register("g", kind == "directed", kind == "weighted", edges, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Snapshot("g"); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			batch := make([]Edge, 32)
			for i := range batch {
				batch[i] = Edge{U: int32(rng.IntN(40_000)), V: int32(40_000 + rng.IntN(4)), W: 2}
			}
			var err error
			if b := allocated(func() { _, err = reg.Append("g", batch) }); err != nil || b >= 64<<10 {
				t.Fatalf("%s: Append allocated %d bytes (err %v), want < 64 KiB", kind, b, err)
			}
			var snap *Snapshot
			b := allocated(func() { snap, err = reg.Snapshot("g") })
			if err != nil {
				t.Fatal(err)
			}
			if limit := csrBytes(snap) * 5 / 4; b > limit {
				t.Fatalf("%s: Snapshot allocated %d bytes, want at most 1.25 x the %d-byte CSR", kind, b, csrBytes(snap))
			}
		}
	}
}

// TestConcurrentAppendSolve appends to a static graph while solves run
// on it, cached and not. Every solve must succeed; a snapshot taken
// before the appends must be left as it was; and at the end the HTTP
// answer must equal the in-process Solve on the whole log.
func TestConcurrentAppendSolve(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, SolveWorkers: 2})
	ag := &appendGraph{log: testEdges(300, 1500, 12, 9)}
	if _, err := s.Registry().Register("g", false, false, ag.log, 0); err != nil {
		t.Fatal(err)
	}
	first, err := s.Registry().Snapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	held, _ := ag.freeze(t, first.Info.Nodes)

	var logMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 9))
			for i := 0; i < 20; i++ {
				logMu.Lock()
				batch := ag.batch(rng, 300, 2, 1+rng.IntN(16))
				_, err := s.Registry().Append("g", batch)
				if err == nil {
					ag.log = append(ag.log, batch...)
				}
				logMu.Unlock()
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, data := concurrentPost(ts.URL+"/solve", map[string]any{
					"graph": "g", "objective": "AtLeastK", "eps": 0.5, "k": 10, "noCache": (c+i)%2 == 0,
				})
				if resp == nil || resp.StatusCode != 200 {
					t.Errorf("solve during appends: %v %s", resp, data)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(first.Graph, held) {
		t.Fatal("appends modified a snapshot a solve could hold")
	}

	info, err := s.Registry().Info("g")
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Problem{Objective: ds.ObjectiveAtLeastK, Eps: 0.5, K: 10}
	p.Graph, _ = ag.freeze(t, info.Nodes)
	want, err := ds.Solve(context.Background(), p, ds.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	resp, got := doJSON(t, http.MethodPost, ts.URL+"/solve", map[string]any{
		"graph": "g", "objective": "AtLeastK", "eps": 0.5, "k": 10,
	})
	if resp.StatusCode != 200 || strings.TrimSpace(string(got)) != string(wantJSON) {
		t.Fatalf("final solve: status %d\n%s\nwant\n%s", resp.StatusCode, got, wantJSON)
	}
}
