// Command densestd serves densest-subgraph computations over HTTP:
// register graphs once under /graphs/{name}, then solve any Problem on
// them via POST /solve (synchronous) or POST /jobs (asynchronous, with
// per-pass progress and cancellation). See the package README for the
// endpoint reference and curl examples.
//
// Modes:
//
//	densestd -addr :8080 -graph web=web.txt        # serve
//	densestd -smoke                                # boot + HTTP-vs-inprocess parity check, then exit
//	densestd -selfdrive -drive-requests 512        # boot + load driver, print qps/p99, then exit
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	ds "densestream"
	"densestream/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		workers      = flag.Int("workers", 0, "solver pool size (0 = GOMAXPROCS/2)")
		queueDepth   = flag.Int("queue", 0, "bounded job-queue depth (0 = 64)")
		cacheEntries = flag.Int("cache", 0, "LRU result-cache entries (0 = 256, negative disables)")
		solveWorkers = flag.Int("solve-workers", 0, "WithWorkers value per solve (0 = GOMAXPROCS)")
		timeout      = flag.Duration("timeout", 0, "default per-request solve deadline (0 = none)")
		smoke        = flag.Bool("smoke", false, "boot on a loopback port, check HTTP/in-process parity for every objective, exit")
		selfdrive    = flag.Bool("selfdrive", false, "boot on a loopback port, run the load driver, print qps/p99, exit")
		driveReqs    = flag.Int("drive-requests", 512, "selfdrive: total requests")
		driveConc    = flag.Int("drive-concurrency", 8, "selfdrive: concurrent connections")
		driveNoCache = flag.Bool("drive-nocache", false, "selfdrive: bypass the result cache (measure full solves)")
	)
	var preloads []string
	flag.Func("graph", "preload a graph as name=path (repeatable; suffix :directed and/or :weighted after the path)", func(v string) error {
		preloads = append(preloads, v)
		return nil
	})
	flag.Parse()

	cfg := serve.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		CacheEntries:   *cacheEntries,
		SolveWorkers:   *solveWorkers,
		DefaultTimeout: *timeout,
	}

	var err error
	switch {
	case *smoke:
		err = runSmoke(os.Stdout, cfg)
	case *selfdrive:
		err = runSelfdrive(os.Stdout, cfg, *driveReqs, *driveConc, *driveNoCache)
	default:
		err = runServe(*addr, cfg, preloads)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "densestd:", err)
		os.Exit(1)
	}
}

// runServe is the daemon mode: preload graphs, listen, drain on signal.
func runServe(addr string, cfg serve.Config, preloads []string) error {
	s := serve.New(cfg)
	defer s.Close()
	for _, spec := range preloads {
		info, err := preloadGraph(s, spec)
		if err != nil {
			return err
		}
		fmt.Printf("densestd: loaded graph %q: %d nodes, %d edges, fingerprint %s\n",
			info.Name, info.Nodes, info.Edges, info.Fingerprint)
	}

	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("densestd: listening on %s\n", addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case <-sig:
		fmt.Println("densestd: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}

// preloadGraph registers one -graph flag value: name=path[:directed][:weighted].
func preloadGraph(s *serve.Server, spec string) (serve.GraphInfo, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" || rest == "" {
		return serve.GraphInfo{}, fmt.Errorf("-graph wants name=path[:directed][:weighted], got %q", spec)
	}
	path := rest
	var directed, weighted bool
	for {
		switch {
		case strings.HasSuffix(path, ":directed"):
			path, directed = strings.TrimSuffix(path, ":directed"), true
		case strings.HasSuffix(path, ":weighted"):
			path, weighted = strings.TrimSuffix(path, ":weighted"), true
		default:
			f, err := os.Open(path)
			if err != nil {
				return serve.GraphInfo{}, fmt.Errorf("opening graph %q: %w", path, err)
			}
			defer f.Close()
			edges, err := serve.ParseEdgeList(f, weighted)
			if err != nil {
				return serve.GraphInfo{}, fmt.Errorf("parsing %q: %w", path, err)
			}
			return s.Registry().Register(name, directed, weighted, edges, 0)
		}
	}
}

// bootLoopback starts a daemon on an ephemeral loopback port and
// returns its base URL and a shutdown func.
func bootLoopback(cfg serve.Config) (*serve.Server, string, func(), error) {
	s := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, "", nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		s.Close()
	}
	return s, "http://" + ln.Addr().String(), stop, nil
}

// smokeEdges is a deterministic xorshift edge list with a planted
// clique, shared by the smoke graphs.
func smokeEdges(n, m, clique int, seed uint64, directed bool, weighted bool) []serve.Edge {
	rng := seed*2862933555777941757 + 3037000493
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var edges []serve.Edge
	for i := 0; i < clique; i++ {
		for j := i + 1; j < clique; j++ {
			edges = append(edges, serve.Edge{U: int32(i), V: int32(j), W: 1})
		}
	}
	for len(edges) < m {
		u := int32(next() % uint64(n))
		v := int32(next() % uint64(n))
		if u == v {
			continue
		}
		edges = append(edges, serve.Edge{U: u, V: v, W: 1})
	}
	if weighted {
		for i := range edges {
			edges[i].W = 1 + float64(i%5)
		}
	}
	_ = directed
	return edges
}

// smokeCase is one objective exercised by -smoke.
type smokeCase struct {
	graph   string
	problem ds.Problem
}

func smokeCases() []smokeCase {
	return []smokeCase{
		{"u", ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: 0.1}},
		{"u", ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 0.1}},
		{"u", ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendMapReduce, Eps: 0.1}},
		{"w", ds.Problem{Objective: ds.ObjectiveWeighted, Backend: ds.BackendPeel, Eps: 0.1}},
		{"w", ds.Problem{Objective: ds.ObjectiveWeighted, Backend: ds.BackendStream, Eps: 0.1}},
		{"u", ds.Problem{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendPeel, Eps: 0.25, K: 30}},
		{"u", ds.Problem{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendStream, Eps: 0.25, K: 30}},
		{"u", ds.Problem{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendMapReduce, Eps: 0.25, K: 30}},
		{"d", ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendPeel, Eps: 0.1, C: 1}},
		{"d", ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendStream, Eps: 0.1, C: 1}},
		{"d", ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendMapReduce, Eps: 0.1, C: 1}},
		{"d", ds.Problem{Objective: ds.ObjectiveDirectedSweep, Backend: ds.BackendPeel, Eps: 0.25, Delta: 2}},
		{"d", ds.Problem{Objective: ds.ObjectiveDirectedSweep, Backend: ds.BackendStream, Eps: 0.25, Delta: 2}},
		{"u", ds.Problem{Objective: ds.ObjectiveExact, Backend: ds.BackendPeel}},
		{"u", ds.Problem{Objective: ds.ObjectiveGreedy, Backend: ds.BackendPeel}},
	}
}

// smokeGraph is one registered smoke graph with its whole edge log.
type smokeGraph struct {
	directed, weighted bool
	edges              []serve.Edge
}

// smokeAppend is the append round of one smoke graph on n nodes: two
// edges already present (one of them reversed), a repeat inside the
// batch, fresh pairs, and edges to the new node ids n and n+1. Weighted
// graphs get weights that differ from the first registration's.
func smokeAppend(g smokeGraph, n int, seed uint64) []serve.Edge {
	batch := []serve.Edge{g.edges[0], {U: g.edges[1].V, V: g.edges[1].U, W: 1}}
	batch = append(batch, smokeEdges(n, 24, 0, seed, g.directed, false)...)
	batch = append(batch, batch[3], serve.Edge{U: 3, V: int32(n), W: 1}, serve.Edge{U: int32(n + 1), V: int32(n), W: 1})
	if g.weighted {
		for i := range batch {
			batch[i].W = 0.5 + 0.75*float64(i%4)
		}
	}
	return batch
}

// runSmoke boots a loopback daemon, solves one Problem per objective ×
// backend over HTTP, and checks each response against the in-process
// Solve on the same graph — the service-parity acceptance check. It
// then appends a batch to every graph over HTTP and checks every case
// again against the in-process Solve on the concatenated edges.
func runSmoke(out io.Writer, cfg serve.Config) error {
	s, base, stop, err := bootLoopback(cfg)
	if err != nil {
		return err
	}
	defer stop()

	graphs := map[string]smokeGraph{
		"u": {false, false, smokeEdges(400, 2400, 20, 3, false, false)},
		"w": {false, true, smokeEdges(300, 1500, 12, 4, false, true)},
		"d": {true, false, smokeEdges(300, 1800, 16, 5, true, false)},
	}
	for name, g := range graphs {
		if _, err := s.Registry().Register(name, g.directed, g.weighted, g.edges, 0); err != nil {
			return fmt.Errorf("registering smoke graph %q: %w", name, err)
		}
	}
	if err := smokeRound(out, base, graphs, ""); err != nil {
		return err
	}
	fmt.Fprintf(out, "smoke: all %d objective/backend cases are HTTP/in-process identical\n", len(smokeCases()))

	for name, n := range map[string]int{"u": 400, "w": 300, "d": 300} {
		g := graphs[name]
		batch := smokeAppend(g, n, uint64(n)+7)
		rows := make([][]float64, len(batch))
		for i, e := range batch {
			rows[i] = []float64{float64(e.U), float64(e.V), e.W}
		}
		body, err := json.Marshal(map[string]any{"edges": rows})
		if err != nil {
			return err
		}
		resp, err := http.Post(base+"/graphs/"+name+"/edges", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("appending to %q: %w", name, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("appending to %q: %w", name, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("appending to %q: status %d: %s", name, resp.StatusCode, data)
		}
		g.edges = append(g.edges, batch...)
		graphs[name] = g
	}
	if err := smokeRound(out, base, graphs, "append/"); err != nil {
		return err
	}
	fmt.Fprintf(out, "smoke: all %d cases stay identical after an append round on u, w and d\n", len(smokeCases()))
	return smokeDynamic(out, s, base)
}

// smokeRound solves every smoke case over HTTP and compares it with the
// in-process Solve on the graph's whole edge log.
func smokeRound(out io.Writer, base string, graphs map[string]smokeGraph, prefix string) error {
	failures := 0
	for _, c := range smokeCases() {
		label := fmt.Sprintf("%s%s/%s", prefix, c.problem.Objective, c.problem.Backend)
		g := graphs[c.graph]

		// In-process reference on the same edges.
		ref := c.problem
		if err := buildInput(&ref, g.directed, g.weighted, g.edges); err != nil {
			return fmt.Errorf("%s: building reference input: %w", label, err)
		}
		want, err := ds.Solve(context.Background(), ref)
		if err != nil {
			return fmt.Errorf("%s: in-process solve: %w", label, err)
		}

		// Over the wire.
		body, err := json.Marshal(serve.SolveRequest{Graph: c.graph, NoCache: true, Problem: c.problem})
		if err != nil {
			return fmt.Errorf("%s: marshalling request: %w", label, err)
		}
		resp, err := http.Post(base+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("%s: POST /solve: %w", label, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("%s: reading response: %w", label, err)
		}
		if resp.StatusCode != http.StatusOK {
			fmt.Fprintf(out, "FAIL %-35s status %d: %s\n", label, resp.StatusCode, got)
			failures++
			continue
		}

		same, err := solutionsMatch(want, got, c.problem.Backend == ds.BackendMapReduce)
		if err != nil {
			return fmt.Errorf("%s: comparing: %w", label, err)
		}
		if !same {
			fmt.Fprintf(out, "FAIL %-35s HTTP solution differs from in-process Solve\n", label)
			failures++
			continue
		}
		fmt.Fprintf(out, "ok   %-35s density matches in-process (%.6f)\n", label, want.Density)
	}
	if failures > 0 {
		return fmt.Errorf("smoke: %s%d/%d cases failed", prefix, failures, len(smokeCases()))
	}
	return nil
}

// smokeDynamic exercises the dynamic ingest path end to end: a
// maintainer-backed graph fed over POST /graphs/{name}/edges, reads of
// the maintained solution via GET /graphs/{name}/current and the warm
// /solve fast path, and a wire delete that guts the dense core — so the
// drift trigger provably fires and each served solution is bit-identical
// to the in-process Solve on the exact live edge set.
func smokeDynamic(out io.Writer, s *serve.Server, base string) error {
	const eps = 0.1
	all := smokeEdges(200, 1000, 14, 9, false, false)
	seed, batch := all[:800], all[800:]
	// cut removes edges inside the planted clique: deleting them drops
	// the maintained density, which forces a re-peel before serving.
	cut := all[:30]
	if _, err := s.Registry().RegisterDynamic("dyn", ds.MaintainerConfig{NumNodes: 200, Eps: eps}, seed); err != nil {
		return fmt.Errorf("registering dynamic smoke graph: %w", err)
	}

	// The oracle tracks the exact live multiset alongside the wire feed:
	// an edge is live while its reference count is positive.
	counts := make(map[[2]int32]int)
	apply := func(edges []serve.Edge, d int) {
		for _, e := range edges {
			u, v := e.U, e.V
			if u > v {
				u, v = v, u
			}
			counts[[2]int32{u, v}] += d
		}
	}
	apply(seed, 1)
	oracle := func() (*ds.Solution, error) {
		var live []serve.Edge
		for k, c := range counts {
			if c > 0 {
				live = append(live, serve.Edge{U: k[0], V: k[1], W: 1})
			}
		}
		sort.Slice(live, func(i, j int) bool {
			if live[i].U != live[j].U {
				return live[i].U < live[j].U
			}
			return live[i].V < live[j].V
		})
		ref := ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: eps}
		if err := buildInput(&ref, false, false, live); err != nil {
			return nil, err
		}
		return ds.Solve(context.Background(), ref)
	}
	edgesJSON := func(edges []serve.Edge) []byte {
		rows := make([][]float64, len(edges))
		for i, e := range edges {
			rows[i] = []float64{float64(e.U), float64(e.V)}
		}
		data, _ := json.Marshal(map[string]any{"edges": rows})
		return data
	}
	fetch := func(method, url string, body []byte) ([]byte, error) {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, data)
		}
		return data, nil
	}

	// Ingest a batch, then read the maintained solution.
	if _, err := fetch(http.MethodPost, base+"/graphs/dyn/edges", edgesJSON(batch)); err != nil {
		return fmt.Errorf("dynamic ingest: %w", err)
	}
	apply(batch, 1)
	got, err := fetch(http.MethodGet, base+"/graphs/dyn/current", nil)
	if err != nil {
		return fmt.Errorf("dynamic current: %w", err)
	}
	want, err := oracle()
	if err != nil {
		return fmt.Errorf("dynamic ingest oracle: %w", err)
	}
	if same, err := solutionsMatch(want, bytes.TrimSpace(got), false); err != nil || !same {
		return fmt.Errorf("dynamic ingest: maintained solution differs from in-process Solve (err=%v)", err)
	}
	fmt.Fprintf(out, "ok   %-28s maintained solution matches in-process (%.6f)\n", "Dynamic/ingest", want.Density)

	// Gut the dense core over the wire, then hit the /solve fast path.
	if _, err := fetch(http.MethodPost, base+"/graphs/dyn/edges?op=delete", edgesJSON(cut)); err != nil {
		return fmt.Errorf("dynamic delete: %w", err)
	}
	apply(cut, -1)
	body, err := json.Marshal(serve.SolveRequest{Graph: "dyn", Problem: ds.Problem{
		Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: eps,
	}})
	if err != nil {
		return err
	}
	got, err = fetch(http.MethodPost, base+"/solve", body)
	if err != nil {
		return fmt.Errorf("dynamic solve fast path: %w", err)
	}
	if want, err = oracle(); err != nil {
		return fmt.Errorf("dynamic delete oracle: %w", err)
	}
	if same, err := solutionsMatch(want, bytes.TrimSpace(got), false); err != nil || !same {
		return fmt.Errorf("dynamic delete: served solution differs from in-process Solve (err=%v)", err)
	}
	fmt.Fprintf(out, "ok   %-28s warm /solve matches in-process after delete (%.6f)\n", "Dynamic/delete", want.Density)
	fmt.Fprintf(out, "smoke: dynamic ingest path is HTTP/in-process identical\n")
	return nil
}

// buildInput attaches the in-process graph built from edges to p.
func buildInput(p *ds.Problem, directed, weighted bool, edges []serve.Edge) error {
	n := 0
	for _, e := range edges {
		if int(e.U) >= n {
			n = int(e.U) + 1
		}
		if int(e.V) >= n {
			n = int(e.V) + 1
		}
	}
	if directed {
		b := ds.NewDirectedBuilder(n)
		for _, e := range edges {
			if err := b.AddEdge(e.U, e.V); err != nil {
				return err
			}
		}
		g, err := b.Freeze()
		if err != nil {
			return err
		}
		p.Directed = g
		return nil
	}
	b := ds.NewBuilder(n)
	for _, e := range edges {
		var err error
		if weighted {
			err = b.AddWeightedEdge(e.U, e.V, e.W)
		} else {
			err = b.AddEdge(e.U, e.V)
		}
		if err != nil {
			return err
		}
	}
	g, err := b.Freeze()
	if err != nil {
		return err
	}
	p.Graph = g
	return nil
}

// solutionsMatch compares the HTTP response bytes against the reference
// Solution. MapReduce solutions carry wall-clock round timings that
// legitimately differ run to run; those are zeroed on both sides first.
func solutionsMatch(want *ds.Solution, got []byte, mapReduce bool) (bool, error) {
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return false, err
	}
	if !mapReduce {
		return bytes.Equal(wantJSON, got), nil
	}
	var a, b ds.Solution
	if err := json.Unmarshal(wantJSON, &a); err != nil {
		return false, err
	}
	if err := json.Unmarshal(got, &b); err != nil {
		return false, err
	}
	for i := range a.MRRounds {
		a.MRRounds[i].Wall = 0
	}
	for i := range b.MRRounds {
		b.MRRounds[i].Wall = 0
	}
	for i := range a.MRDirectedRounds {
		a.MRDirectedRounds[i].Wall = 0
	}
	for i := range b.MRDirectedRounds {
		b.MRDirectedRounds[i].Wall = 0
	}
	aj, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	bj, err := json.Marshal(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(aj, bj), nil
}

// runSelfdrive boots a loopback daemon, registers a benchmark graph,
// and reports sustained throughput and latency percentiles from the
// load driver.
func runSelfdrive(out io.Writer, cfg serve.Config, requests, concurrency int, noCache bool) error {
	s, base, stop, err := bootLoopback(cfg)
	if err != nil {
		return err
	}
	defer stop()

	n := 3000
	if _, err := s.Registry().Register("bench", false, false, smokeEdges(n, 5*n, 30, 21, false, false), 0); err != nil {
		return fmt.Errorf("registering bench graph: %w", err)
	}
	var problems []ds.Problem
	for _, eps := range []float64{0.1, 0.25, 0.5, 1, 2} {
		problems = append(problems, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: eps})
	}
	res, err := serve.Drive(serve.DriveConfig{
		BaseURL:     base,
		Graph:       "bench",
		Problems:    problems,
		Requests:    requests,
		Concurrency: concurrency,
		NoCache:     noCache,
	})
	if err != nil {
		return err
	}
	mode := "cached"
	if noCache {
		mode = "uncached"
	}
	fmt.Fprintf(out, "selfdrive (%s): %d requests, %d errors, %d conns\n", mode, res.Requests, res.Errors, concurrency)
	fmt.Fprintf(out, "  qps  %10.1f\n", res.QPS)
	fmt.Fprintf(out, "  p50  %10s\n", res.P50)
	fmt.Fprintf(out, "  p90  %10s\n", res.P90)
	fmt.Fprintf(out, "  p99  %10s\n", res.P99)
	fmt.Fprintf(out, "  max  %10s\n", res.Max)
	if res.Errors > 0 {
		return fmt.Errorf("selfdrive: %d requests failed", res.Errors)
	}
	return nil
}
