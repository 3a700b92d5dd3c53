package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	ds "densestream"
)

// fileEps is the Problem's ε on every file workload.
const fileEps = 0.05

// fileWorkload is one path from a graph file on disk to a Solution.
type fileWorkload struct {
	text    bool // text edge list instead of BSG1
	backend ds.Backend
}

var fileWorkloads = map[string]fileWorkload{
	"bsg1-peel":      {backend: ds.BackendPeel},
	"bsg1-stream":    {backend: ds.BackendStream},
	"text-mapreduce": {text: true, backend: ds.BackendMapReduce},
}

// fileBench is a set-up file workload: the generated graph, its file, and
// the reference answer.
type fileBench struct {
	fileWorkload
	path    string
	g       *ds.UndirectedGraph
	ref     *ds.Solution
	workers int
}

// setupFile generates the ChungLu graph, writes it in the workload's
// format and runs one warm-up op.
//
// The graph is relabelled in breadth-first order with isolated nodes
// dropped. The loaders intern labels in first-seen order, and BFS order is
// the order in which a sorted edge list first shows each node, so the file
// loads back with every node keeping its id. The reference can therefore
// be a resident Solve on the generated graph at workers=1, which never
// touches a file, and still be compared with the file solves bit for bit.
func setupFile(ctx context.Context, cfg config, w fileWorkload, dir string) (*fileBench, error) {
	g0, err := ds.GenerateChungLu(cfg.size.n, int64(cfg.size.m), 2.2, cfg.seed)
	if err != nil {
		return nil, err
	}
	g, err := bfsRelabel(g0)
	if err != nil {
		return nil, err
	}
	b := &fileBench{fileWorkload: w, g: g, workers: cfg.workers}
	if w.text {
		b.path = filepath.Join(dir, "graph.txt")
		err = writeText(b.path, g)
	} else {
		b.path = filepath.Join(dir, "graph.bsg1")
		err = ds.WriteUndirectedBinary(b.path, g)
	}
	if err != nil {
		return nil, fmt.Errorf("writing %s: %w", b.path, err)
	}
	if _, err := ds.Solve(ctx, b.problem(), b.options(nil)...); err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	return b, nil
}

// reference solves the Problem on the resident graph at workers=1. With
// corrupt set it drops a node from the answer, as a wrong reference.
func (b *fileBench) reference(ctx context.Context, corrupt bool) error {
	p := b.problem()
	p.Path, p.Graph = "", b.g
	var err error
	if b.ref, err = ds.Solve(ctx, p, ds.WithWorkers(1)); err != nil {
		return fmt.Errorf("reference solve: %w", err)
	}
	if corrupt && len(b.ref.Set) > 0 {
		b.ref.Set = b.ref.Set[1:]
	}
	return nil
}

func (b *fileBench) problem() ds.Problem {
	return ds.Problem{Objective: ds.ObjectiveUndirected, Backend: b.backend, Eps: fileEps, Path: b.path}
}

func (b *fileBench) options(progress func(ds.PassStat) bool) []ds.Option {
	opts := []ds.Option{ds.WithWorkers(b.workers)}
	if b.backend == ds.BackendMapReduce {
		opts = append(opts, ds.WithMapReduceConfig(ds.MRConfig{Mappers: b.workers, Reducers: b.workers, Machines: 1}))
	}
	if progress != nil {
		opts = append(opts, ds.WithProgress(progress))
	}
	return opts
}

// check compares a Solution with the reference bit for bit.
func (b *fileBench) check(sol *ds.Solution) error {
	if math.Float64bits(sol.Density) != math.Float64bits(b.ref.Density) || sol.Passes != b.ref.Passes || !slices.Equal(sol.Set, b.ref.Set) {
		return fmt.Errorf("%s on %s: density %v passes %d |S| %d, reference density %v passes %d |S| %d",
			b.backend, filepath.Base(b.path), sol.Density, sol.Passes, len(sol.Set), b.ref.Density, b.ref.Passes, len(b.ref.Set))
	}
	return nil
}

// opSample is one measured Solve.
type opSample struct {
	start   time.Time
	wall    time.Duration
	alloc   uint64 // bytes allocated during the Solve
	gcs     uint32 // GC cycles during the Solve
	pauseNS uint64 // GC pause during the Solve
	failed  bool
}

// solveOnce runs the workload's op: Solve from the file path to a
// Solution, checked against the reference. The heap is collected first so
// that every op starts from the same state.
func (b *fileBench) solveOnce(ctx context.Context, t *tally, progress func(ds.PassStat) bool) opSample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	sol, err := ds.Solve(ctx, b.problem(), b.options(progress)...)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err == nil {
		err = b.check(sol)
	}
	t.record(err)
	return opSample{start: start, wall: wall, alloc: m1.TotalAlloc - m0.TotalAlloc, gcs: m1.NumGC - m0.NumGC,
		pauseNS: m1.PauseTotalNs - m0.PauseTotalNs, failed: err != nil}
}

func runFile(cfg config, dir string, tr *tracer, t *tally, sh *shape) (map[string]metric, error) {
	ctx := context.Background()
	w := fileWorkloads[cfg.workload]
	b, setupS, err := repeatSetup(cfg, dir, func(sub string) (*fileBench, error) {
		return setupFile(ctx, cfg, w, sub)
	}, nil)
	if err != nil {
		return nil, err
	}
	if err := b.reference(ctx, cfg.corruptRef); err != nil {
		return nil, err
	}
	sh.Nodes, sh.Edges = b.g.NumNodes(), b.g.NumEdges()
	if fi, err := os.Stat(b.path); err == nil {
		sh.FileBytes = fi.Size()
	}

	if cfg.trace {
		return traceFile(ctx, cfg, b, tr, t, sh)
	}
	var walls, allocs []float64
	var busy time.Duration
	deadline := time.Now().Add(seconds(cfg.seconds))
	for len(walls) == 0 || time.Now().Before(deadline) {
		s := b.solveOnce(ctx, t, nil)
		busy += s.wall
		w := s.wall.Seconds()
		if s.failed {
			w = math.Inf(1)
		}
		walls = append(walls, w)
		allocs = append(allocs, float64(s.alloc)/1e6)
	}
	sh.Requests = len(walls)
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"solve_s":        {median(walls), "s"},
		"alloc_mb":       {median(allocs), "MB"},
		"rps":            {float64(len(walls)) / busy.Seconds(), "1/s"},
		"latency_p50_ms": {median(walls) * 1e3, "ms"},
		"latency_p99_ms": {tail(walls) * 1e3, "ms"},
	}, nil
}

// traceFile is the traced run of a file workload: the op itself with
// per-pass spans, alternating with untraced ops to price the tracing, then
// every layer probed on the workload's file.
func traceFile(ctx context.Context, cfg config, b *fileBench, tr *tracer, t *tally, sh *shape) (map[string]metric, error) {
	m := map[string]metric{}
	var plain, traced []float64
	var gcs, pauses []float64
	deadline := time.Now().Add(seconds(cfg.seconds))
	for i := 0; len(plain) == 0 || time.Now().Before(deadline); i++ {
		var s opSample
		if i%2 == 0 {
			var clk passClock
			s = b.solveOnce(ctx, t, clk.hook)
			clk.record(tr, "solve", tr.newOp(), s.start, s.start.Add(s.wall))
			traced = append(traced, s.wall.Seconds())
		} else {
			s = b.solveOnce(ctx, t, nil)
			plain = append(plain, s.wall.Seconds())
		}
		gcs = append(gcs, float64(s.gcs))
		pauses = append(pauses, float64(s.pauseNS)/1e6)
	}
	sh.Requests = len(plain) + len(traced)
	m["runtime.gc_cycles"] = metric{mean(gcs), "1/op"}
	m["runtime.gc_pause_ms"] = metric{mean(pauses), "ms"}
	m["trace.overhead_pct"] = metric{overheadPct(plain, traced), "%"}
	if err := probeLayers(ctx, cfg, b.path, tr, m); err != nil {
		return nil, err
	}
	if err := probeServe(cfg, b.path, b.g, tr, t, m); err != nil {
		return nil, err
	}
	return m, nil
}

// repeatSetup sets the workload up cfg.size.setupReps times (once for a
// traced run), each time from scratch in a fresh directory, and keeps the
// last. It returns the median set-up time; discard releases the others.
func repeatSetup[T any](cfg config, dir string, setup func(dir string) (T, error), discard func(T)) (T, float64, error) {
	reps := cfg.size.setupReps
	if cfg.trace {
		reps = 1
	}
	var kept T
	var times []float64
	for i := 0; i < reps; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		err := os.MkdirAll(sub, 0o755)
		start := time.Now()
		var b T
		if err == nil {
			b, err = setup(sub)
		}
		elapsed := time.Since(start).Seconds()
		if i > 0 && discard != nil {
			discard(kept)
		}
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, elapsed)
		kept = b
	}
	return kept, median(times), nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// bfsRelabel renumbers the non-isolated nodes of g in breadth-first order
// (roots in id order, neighbours in id order) and drops isolated nodes.
func bfsRelabel(g *ds.UndirectedGraph) (*ds.UndirectedGraph, error) {
	n := g.NumNodes()
	newID := make([]int32, n)
	for i := range newID {
		newID[i] = -1
	}
	order := make([]int32, 0, n)
	for r := int32(0); int(r) < n; r++ {
		if newID[r] >= 0 || g.Degree(r) == 0 {
			continue
		}
		newID[r] = int32(len(order))
		order = append(order, r)
		for head := len(order) - 1; head < len(order); head++ {
			for _, v := range g.Neighbors(order[head]) {
				if newID[v] < 0 {
					newID[v] = int32(len(order))
					order = append(order, v)
				}
			}
		}
	}
	bld := ds.NewBuilder(len(order))
	var err error
	g.Edges(func(u, v int32, _ float64) bool {
		err = bld.AddEdge(newID[u], newID[v])
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return bld.Freeze()
}

func writeText(path string, g *ds.UndirectedGraph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ds.WriteUndirected(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
