package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	ds "densestream"
	"densestream/internal/serve"
)

// mixHardStop ends a mix even below its request floor, so that a run
// always exits in time.
const mixHardStop = 120 * time.Second

// served is densestd (serve.New plus Handler) on a loopback listener,
// with the graphs registered on it.
type served struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan error
	base   string
	client *http.Client
	graphs map[string]*servedGraph
}

// servedGraph is a registered graph with the in-memory graph its file was
// written from.
type servedGraph struct {
	info serve.GraphInfo
	u    *ds.UndirectedGraph
	d    *ds.DirectedGraph
}

func startServed(workers, clients int) (*served, error) {
	srv := serve.New(serve.Config{SolveWorkers: workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &served{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients,
		}},
		graphs: map[string]*servedGraph{},
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the handlers and the solver pool.
func (s *served) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.hs.Shutdown(ctx) != nil {
		_ = s.hs.Close()
	}
	<-s.done
	s.srv.Close()
	s.client.CloseIdleConnections()
}

// do sends one request and reads the whole response.
func (s *served) do(method, path string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// register PUTs the graph file at path under name, by path.
func (s *served) register(name, path string, u *ds.UndirectedGraph, d *ds.DirectedGraph) error {
	abs, err := filepath.Abs(path)
	if err != nil {
		return err
	}
	body, _ := json.Marshal(map[string]any{"path": abs, "directed": d != nil})
	status, _, data, err := s.do(http.MethodPut, "/graphs/"+name, body)
	if err != nil {
		return fmt.Errorf("registering %s: %w", name, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("registering %s: status %d: %s", name, status, data)
	}
	g := &servedGraph{u: u, d: d}
	if err := json.Unmarshal(data, &g.info); err != nil {
		return fmt.Errorf("registering %s: %w", name, err)
	}
	s.graphs[name] = g
	return nil
}

func (s *served) solve(tg target, noCache bool) (int, http.Header, []byte, error) {
	body, _ := json.Marshal(serve.SolveRequest{Graph: tg.graph, NoCache: noCache, Problem: tg.p})
	return s.do(http.MethodPost, "/solve", body)
}

// target is one cacheable Problem on one registered graph.
type target struct {
	graph string
	p     ds.Problem
}

// mixTargets is the fixed Problem set of the mix: Undirected at four ε
// and AtLeastK on the undirected graph, Directed on the directed one
// (when there is one).
func mixTargets(u string, uNodes int, d string) []target {
	var ts []target
	for _, eps := range []float64{0.1, 0.5, 1, 2} {
		ts = append(ts, target{u, ds.Problem{Objective: ds.ObjectiveUndirected, Eps: eps}})
	}
	ts = append(ts, target{u, ds.Problem{Objective: ds.ObjectiveAtLeastK, K: min(1000, uNodes/4), Eps: 0.5}})
	if d != "" {
		ts = append(ts, target{d, ds.Problem{Objective: ds.ObjectiveDirected, C: 1, Eps: 0.5}})
	}
	return ts
}

// Request kinds of the mix.
const (
	kindCached  = iota // cacheable solve, 60%
	kindNoCache        // the same Problems with noCache, 30%
	kindAppend         // 32 random edges appended to the undirected graph, 10%
)

// slot is one entry of the request deck.
type slot struct{ kind, target int }

// mixDeck holds, per target, six cacheable solves, three noCache solves
// and one append. Each client deals a freshly shuffled deck again and
// again, so the mix keeps its exact proportions on every seed while the
// order is drawn from the seed.
func mixDeck(targets int) []slot {
	var deck []slot
	for t := 0; t < targets; t++ {
		for i := 0; i < 6; i++ {
			deck = append(deck, slot{kindCached, t})
		}
		for i := 0; i < 3; i++ {
			deck = append(deck, slot{kindNoCache, t})
		}
		deck = append(deck, slot{kindAppend, -1})
	}
	return deck
}

// mixSpec shapes one closed-loop run.
type mixSpec struct {
	targets     []target
	appendTo    string // the graph that receives appends
	clients     int
	seed        int64
	seconds     float64 // run at least this long
	minRequests int     // and send at least this many requests
}

// reqRecord is one completed request. lo and hi bound the number of
// appends the server had applied when it answered (0 for graphs that get
// none), which pins down the graph version a solve saw.
type reqRecord struct {
	kind    int
	target  int
	hit     bool
	status  int
	lat     time.Duration
	lo, hi  int64
	sum     [32]byte
	err     error
	traced  bool
	appends [][2]int32
}

// mixOut is everything a mix produced.
type mixOut struct {
	recs    []reqRecord
	elapsed time.Duration
	alloc   uint64 // bytes allocated in the process during the mix
	gcs     uint32
	pauseNS uint64
}

// runMix drives a closed loop: spec.clients goroutines, each sending its
// next request when the previous one has been answered, on a schedule
// drawn from the seed. With a tracer, every other request is traced.
func (s *served) runMix(spec mixSpec, tr *tracer) *mixOut {
	nodes := s.graphs[spec.appendTo].info.Nodes
	var ac appendCount
	var completed atomic.Int64
	begin := time.Now()
	deadline, hardStop := begin.Add(seconds(spec.seconds)), begin.Add(mixHardStop)
	stop := func() bool {
		now := time.Now()
		return now.After(hardStop) || (now.After(deadline) && completed.Load() >= int64(spec.minRequests))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	perClient := make([][]reqRecord, spec.clients)
	var wg sync.WaitGroup
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(spec.seed), uint64(c)))
			var hand []slot
			for k := 0; !stop(); k++ {
				if len(hand) == 0 {
					hand = mixDeck(len(spec.targets))
					rng.Shuffle(len(hand), func(i, j int) { hand[i], hand[j] = hand[j], hand[i] })
				}
				rec := reqRecord{kind: hand[0].kind, target: hand[0].target, traced: tr != nil && k%2 == 0}
				hand = hand[1:]
				if rec.kind == kindAppend {
					rec.appends = make([][2]int32, 32)
					for i := range rec.appends {
						u, v := int32(rng.IntN(nodes)), int32(rng.IntN(nodes-1))
						if v >= u {
							v++
						}
						rec.appends[i] = [2]int32{u, v}
					}
				}
				start := time.Now()
				s.send(spec, &rec, &ac)
				end := time.Now()
				rec.lat = end.Sub(start)
				if rec.traced {
					tr.add("serve."+rec.class(), 0, tr.newOp(), start, end)
				}
				perClient[c] = append(perClient[c], rec)
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	out := &mixOut{elapsed: time.Since(begin)}
	runtime.ReadMemStats(&m1)
	out.alloc, out.gcs, out.pauseNS = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs
	for _, recs := range perClient {
		out.recs = append(out.recs, recs...)
	}
	return out
}

// appendCount counts the appends sent and the appends the server
// confirmed; a solve's graph version lies between the confirmed count
// when it was sent and the sent count when it was answered.
type appendCount struct{ started, applied atomic.Int64 }

// send issues rec's request and fills in its outcome. An append that
// fails keeps no edges, so the final check leaves it out.
func (s *served) send(spec mixSpec, rec *reqRecord, ac *appendCount) {
	var hdr http.Header
	var body []byte
	var err error
	if rec.kind == kindAppend {
		ac.started.Add(1)
		data, _ := json.Marshal(map[string]any{"edges": rec.appends})
		rec.status, _, body, err = s.do(http.MethodPost, "/graphs/"+spec.appendTo+"/edges", data)
		if err == nil && rec.status == http.StatusOK {
			ac.applied.Add(1)
		} else {
			rec.appends = nil
		}
	} else {
		tg := spec.targets[rec.target]
		versioned := tg.graph == spec.appendTo
		if versioned {
			rec.lo = ac.applied.Load()
		}
		rec.status, hdr, body, err = s.solve(tg, rec.kind == kindNoCache)
		if versioned {
			rec.hi = ac.started.Load()
		}
	}
	switch {
	case err != nil:
		rec.err = err
	case rec.status != http.StatusOK:
		rec.err = fmt.Errorf("%s: status %d: %s", rec.class(), rec.status, bytes.TrimSpace(body))
	case rec.kind != kindAppend:
		rec.hit = hdr.Get("X-Cache") == "hit"
		rec.sum = sha256.Sum256(body)
	}
}

// class names the request's latency class.
func (r *reqRecord) class() string {
	switch {
	case r.kind == kindAppend:
		return "append"
	case r.kind == kindNoCache:
		return "nocache"
	case r.hit:
		return "hit"
	}
	return "miss"
}

// verify checks every request of the mix and records it in t:
//   - solves that saw one known graph version must all agree;
//   - a cache hit must return the bytes of a miss on its graph version,
//     so its window of possible versions must overlap the miss's;
//   - at the end, one HTTP solve per Problem must equal, byte for byte,
//     an in-process Solve at workers=1 on the final edge set.
func (s *served) verify(spec mixSpec, out *mixOut, corrupt bool, t *tally) {
	type version struct {
		target int
		v      int64
	}
	seen := map[version][32]byte{}
	misses := map[int][]*reqRecord{}
	for i := range out.recs {
		r := &out.recs[i]
		if r.err != nil || r.kind == kindAppend || r.hit {
			continue
		}
		if r.kind == kindCached {
			misses[r.target] = append(misses[r.target], r)
		}
		if r.lo == r.hi {
			key := version{r.target, r.lo}
			if sum, ok := seen[key]; !ok {
				seen[key] = r.sum
			} else if sum != r.sum {
				r.err = fmt.Errorf("%s: two different answers for one graph version", spec.targets[r.target].p.Objective)
			}
		}
	}
	var appended [][2]int32
	for i := range out.recs {
		r := &out.recs[i]
		appended = append(appended, r.appends...)
		if r.err != nil || !r.hit {
			continue
		}
		ok := false
		for _, m := range misses[r.target] {
			if m.sum == r.sum && m.lo <= r.hi && r.lo <= m.hi {
				ok = true
				break
			}
		}
		if !ok {
			r.err = fmt.Errorf("%s: cache hit matches no miss of its graph version", spec.targets[r.target].p.Objective)
		}
	}
	for _, r := range out.recs {
		t.record(r.err)
	}
	for _, tg := range spec.targets {
		var extra [][2]int32
		if tg.graph == spec.appendTo {
			extra = appended
		}
		t.record(s.checkFinal(tg, extra, corrupt))
	}
}

// checkFinal solves tg over HTTP and in process on the registered edges
// plus extra, and compares the two answers byte for byte.
func (s *served) checkFinal(tg target, extra [][2]int32, corrupt bool) error {
	status, _, got, err := s.solve(tg, true)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("final %s: status %d: %s", tg.p.Objective, status, bytes.TrimSpace(got))
	}
	g := s.graphs[tg.graph]
	p := tg.p
	if g.d != nil {
		b := ds.NewDirectedBuilder(g.info.Nodes)
		g.d.Edges(func(u, v int32) bool { err = b.AddEdge(u, v); return err == nil })
		for _, e := range extra {
			if err == nil {
				err = b.AddEdge(e[0], e[1])
			}
		}
		if err == nil {
			p.Directed, err = b.Freeze()
		}
	} else {
		b := ds.NewBuilder(g.info.Nodes)
		g.u.Edges(func(u, v int32, _ float64) bool { err = b.AddEdge(u, v); return err == nil })
		for _, e := range extra {
			if err == nil {
				err = b.AddEdge(e[0], e[1])
			}
		}
		if err == nil {
			p.Graph, err = b.Freeze()
		}
	}
	if err != nil {
		return fmt.Errorf("final %s: building the reference graph: %w", tg.p.Objective, err)
	}
	sol, err := ds.Solve(context.Background(), p, ds.WithWorkers(1))
	if err != nil {
		return fmt.Errorf("final %s: reference solve: %w", tg.p.Objective, err)
	}
	want, err := json.Marshal(sol)
	if err != nil {
		return err
	}
	if corrupt {
		want = append(want, ' ')
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("final %s: HTTP answer differs from the in-process Solve on the final edge set", tg.p.Objective)
	}
	return nil
}

// setupServeMix generates u and d, writes u as BSG1 and d as a text
// edge list, registers both by path and runs one warm-up solve.
func setupServeMix(cfg config, dir string) (*served, error) {
	gu, err := ds.GenerateChungLu(cfg.size.serveUN, int64(cfg.size.serveUM), 2.2, cfg.seed)
	if err != nil {
		return nil, err
	}
	gd, err := ds.GenerateChungLuDirected(cfg.size.serveDN, int64(cfg.size.serveDM), 2.2, cfg.seed)
	if err != nil {
		return nil, err
	}
	uPath, dPath := filepath.Join(dir, "u.bsg1"), filepath.Join(dir, "d.txt")
	if err := ds.WriteUndirectedBinary(uPath, gu); err != nil {
		return nil, err
	}
	if err := writeDirectedText(dPath, gd); err != nil {
		return nil, err
	}
	s, err := startServed(cfg.workers, cfg.workers)
	if err != nil {
		return nil, err
	}
	if err := s.register("u", uPath, gu, nil); err != nil {
		s.close()
		return nil, err
	}
	if err := s.register("d", dPath, nil, gd); err != nil {
		s.close()
		return nil, err
	}
	if err := s.warmUp(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *served) warmUp() error {
	status, _, body, err := s.solve(target{"u", ds.Problem{Objective: ds.ObjectiveUndirected, Eps: 0.5}}, true)
	if err != nil {
		return fmt.Errorf("warm-up solve: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("warm-up solve: status %d: %s", status, bytes.TrimSpace(body))
	}
	return nil
}

func runServeMix(cfg config, dir string, tr *tracer, t *tally, sh *shape) (map[string]metric, error) {
	var uPath string
	s, setupS, err := repeatSetup(cfg, dir, func(sub string) (*served, error) {
		uPath = filepath.Join(sub, "u.bsg1")
		return setupServeMix(cfg, sub)
	}, (*served).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	u, d := s.graphs["u"], s.graphs["d"]
	sh.Nodes = u.info.Nodes + d.info.Nodes
	sh.Edges = int64(u.info.Edges + d.info.Edges)
	for _, p := range []string{uPath, filepath.Join(filepath.Dir(uPath), "d.txt")} {
		if fi, err := os.Stat(p); err == nil {
			sh.FileBytes += fi.Size()
		}
	}
	spec := mixSpec{
		targets: mixTargets("u", u.info.Nodes, "d"), appendTo: "u",
		clients: cfg.workers, seed: cfg.seed, seconds: cfg.seconds, minRequests: cfg.size.minRequests,
	}
	out := s.runMix(spec, tr)
	m := map[string]metric{}
	if cfg.trace {
		// Read /metrics before the final checks add their solves.
		if err := s.serveMetrics(spec, out, m); err != nil {
			return nil, err
		}
	}
	s.verify(spec, out, cfg.corruptRef, t)
	sh.Requests = len(out.recs)
	n := float64(len(out.recs))

	if !cfg.trace {
		var all, solves []float64
		for _, r := range out.recs {
			l := r.lat.Seconds()
			if r.err != nil {
				l = math.Inf(1)
			}
			all = append(all, l)
			if r.kind != kindAppend && !r.hit {
				solves = append(solves, l)
			}
		}
		return map[string]metric{
			"setup_s":        {setupS, "s"},
			"solve_s":        {mean(solves), "s"},
			"alloc_mb":       {float64(out.alloc) / 1e6 / n, "MB"},
			"rps":            {n / out.elapsed.Seconds(), "1/s"},
			"latency_p50_ms": {median(all) * 1e3, "ms"},
			"latency_p99_ms": {tail(all) * 1e3, "ms"},
		}, nil
	}

	var plain, traced []float64
	for _, r := range out.recs {
		if r.traced {
			traced = append(traced, r.lat.Seconds())
		} else {
			plain = append(plain, r.lat.Seconds())
		}
	}
	m["runtime.gc_cycles"] = metric{float64(out.gcs) / n, "1/op"}
	m["runtime.gc_pause_ms"] = metric{float64(out.pauseNS) / 1e6 / n, "ms"}
	m["trace.overhead_pct"] = metric{overheadPct(plain, traced), "%"}
	if err := probeLayers(context.Background(), cfg, uPath, tr, m); err != nil {
		return nil, err
	}
	return m, nil
}

// probeServe is the serve layer of a file workload's traced run: a short
// mix on a fresh server with the workload's file registered as "u".
func probeServe(cfg config, path string, g *ds.UndirectedGraph, tr *tracer, t *tally, m map[string]metric) error {
	s, err := startServed(cfg.workers, cfg.workers)
	if err != nil {
		return err
	}
	defer s.close()
	if err := s.register("u", path, g, nil); err != nil {
		return err
	}
	if err := s.warmUp(); err != nil {
		return err
	}
	spec := mixSpec{
		targets: mixTargets("u", s.graphs["u"].info.Nodes, ""), appendTo: "u",
		clients: cfg.workers, seed: cfg.seed, minRequests: cfg.size.probeRequests,
	}
	out := s.runMix(spec, tr)
	if err := s.serveMetrics(spec, out, m); err != nil {
		return err
	}
	s.verify(spec, out, cfg.corruptRef, t)
	return nil
}

// serveMetrics fills the serve.* metrics from the client-side latencies
// of a mix and the server's /metrics.
func (s *served) serveMetrics(spec mixSpec, out *mixOut, m map[string]metric) error {
	status, _, data, err := s.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/metrics: status %d", status)
	}
	var view serve.MetricsView
	if err := json.Unmarshal(data, &view); err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	byClass := map[string][]float64{}
	var rejected int
	var overhead []float64
	for _, r := range out.recs {
		if r.status == http.StatusServiceUnavailable {
			rejected++
		}
		if r.err != nil {
			continue
		}
		ms := float64(r.lat) / 1e6
		byClass[r.class()] = append(byClass[r.class()], ms)
		if r.kind == kindNoCache {
			overhead = append(overhead, ms-view.PerObjective[spec.targets[r.target].p.Objective.String()].MeanMS)
		}
	}
	var count int64
	var sum float64
	for _, lv := range view.PerObjective {
		count += lv.Count
		sum += lv.MeanMS * float64(lv.Count)
	}
	solveMean := 0.0
	if count > 0 {
		solveMean = sum / float64(count)
	}
	for _, c := range []string{"hit", "miss", "nocache", "append"} {
		m["serve."+c+"_p50_ms"] = metric{median(byClass[c]), "ms"}
	}
	m["serve.cache_hit_rate"] = metric{view.Cache.HitRate, "ratio"}
	m["serve.solve_mean_ms"] = metric{solveMean, "ms"}
	m["serve.overhead_ms"] = metric{mean(overhead), "ms"}
	m["serve.rejected"] = metric{float64(rejected), "count"}
	return nil
}

func writeDirectedText(path string, g *ds.DirectedGraph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ds.WriteDirected(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
