package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	ds "densestream"
	"densestream/internal/edgeio"
)

// probeLayers times the public entry point of each layer on the graph
// file at path and fills the edgeio, graph, core, stream and mapreduce
// metrics. Each probe runs cfg.size.layerReps times; times are medians.
func probeLayers(ctx context.Context, cfg config, path string, tr *tracer, m map[string]metric) error {
	w, reps := cfg.workers, cfg.size.layerReps

	// edgeio: one full decode of the file through the sharded sources.
	var scans []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, _, err := decodeFile(path, w, false); err != nil {
			return err
		}
		end := time.Now()
		tr.add("edgeio.scan", 0, tr.newOp(), start, end)
		scans = append(scans, end.Sub(start).Seconds())
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["edgeio.scan_s"] = metric{median(scans), "s"}
	m["edgeio.bytes"] = metric{float64(fi.Size()), "bytes"}
	m["edgeio.mb_per_s"] = metric{float64(fi.Size()) / 1e6 / median(scans), "MB/s"}

	// graph: the loader, and the builder over the already decoded edges.
	var loads, mallocs []float64
	var g *ds.UndirectedGraph
	for i := 0; i < reps; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		if g, _, err = ds.ReadUndirectedFile(path, false, w); err != nil {
			return err
		}
		end := time.Now()
		runtime.ReadMemStats(&m1)
		tr.add("graph.load", 0, tr.newOp(), start, end)
		loads = append(loads, end.Sub(start).Seconds())
		mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs))
	}
	n, edges, err := decodeFile(path, w, true)
	if err != nil {
		return err
	}
	var freezes []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		b := ds.NewBuilder(n)
		for _, e := range edges {
			if e[0] == e[1] {
				continue // self loops are dropped by the loaders too
			}
			if err := b.AddEdge(e[0], e[1]); err != nil {
				return err
			}
		}
		if _, err := b.Freeze(); err != nil {
			return err
		}
		end := time.Now()
		tr.add("graph.freeze", 0, tr.newOp(), start, end)
		freezes = append(freezes, end.Sub(start).Seconds())
	}
	m["graph.load_s"] = metric{median(loads), "s"}
	m["graph.load_allocs"] = metric{median(mallocs), "count"}
	m["graph.freeze_s"] = metric{median(freezes), "s"}
	m["graph.intern_s"] = metric{median(loads) - median(scans) - median(freezes), "s"}

	// core: the same Problem solved on the resident graph.
	peel := ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: fileEps, Graph: g}
	pn, err := probeSolve(ctx, peel, nil, w, reps, tr, "core.peel")
	if err != nil {
		return err
	}
	p1, err := probeSolve(ctx, peel, nil, 1, reps, tr, "core.peel.w1")
	if err != nil {
		return err
	}
	m["core.peel_s"] = metric{pn.wall, "s"}
	m["core.passes"] = metric{float64(pn.sol.Passes), "count"}
	m["core.edges_scanned"] = metric{float64(pn.edges), "count"}
	m["core.pass_ms_max"] = metric{pn.passMax, "ms"}
	m["core.speedup"] = metric{p1.wall / pn.wall, "x"}

	// stream: the semi-streaming backend reading the file on every pass.
	str := ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: fileEps, Path: path}
	sn, err := probeSolve(ctx, str, nil, w, reps, tr, "stream.solve")
	if err != nil {
		return err
	}
	s1, err := probeSolve(ctx, str, nil, 1, reps, tr, "stream.solve.w1")
	if err != nil {
		return err
	}
	m["stream.pass_ms_median"] = metric{sn.passMedian, "ms"}
	m["stream.passes"] = metric{float64(sn.sol.Passes), "count"}
	m["stream.bytes_scanned"] = metric{float64(sn.sol.Stats.BytesScanned), "bytes"}
	m["stream.mb_per_s"] = metric{float64(sn.sol.Stats.BytesScanned) / 1e6 / sn.wall, "MB/s"}
	m["stream.speedup"] = metric{s1.wall / sn.wall, "x"}

	// mapreduce: the simulated cluster on the resident graph.
	mr := ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendMapReduce, Eps: fileEps, Graph: g}
	mrCfg := []ds.Option{ds.WithMapReduceConfig(ds.MRConfig{Mappers: w, Reducers: w, Machines: 1})}
	mn, err := probeSolve(ctx, mr, mrCfg, w, reps, tr, "mapreduce.solve")
	if err != nil {
		return err
	}
	var records, bytes int64
	var roundMax time.Duration
	for _, r := range mn.sol.MRRounds {
		records += r.Shuffle
		bytes += r.ShuffleBytes
		roundMax = max(roundMax, r.Wall)
	}
	m["mapreduce.solve_s"] = metric{mn.wall, "s"}
	m["mapreduce.rounds"] = metric{float64(len(mn.sol.MRRounds)), "count"}
	m["mapreduce.shuffle_records"] = metric{float64(records), "count"}
	m["mapreduce.shuffle_mb"] = metric{float64(bytes) / 1e6, "MB"}
	m["mapreduce.round_ms_max"] = metric{float64(roundMax) / 1e6, "ms"}
	return nil
}

// probed summarises the repetitions of one probed Solve.
type probed struct {
	sol        *ds.Solution // of the first repetition
	edges      int64        // live edges summed over pass starts
	wall       float64      // median seconds
	passMax    float64      // median of each repetition's longest pass, ms
	passMedian float64      // median of each repetition's median pass, ms
}

// probeSolve runs p reps times at the given worker count, recording a
// span per run with its ingest and pass children. Every run must give
// the same Passes, Density and Set as the first.
func probeSolve(ctx context.Context, p ds.Problem, opts []ds.Option, workers, reps int, tr *tracer, name string) (probed, error) {
	var out probed
	var walls, maxes, medians []float64
	for i := 0; i < reps; i++ {
		var clk passClock
		o := append(slices.Clip(opts), ds.WithWorkers(workers), ds.WithProgress(clk.hook))
		start := time.Now()
		sol, err := ds.Solve(ctx, p, o...)
		end := time.Now()
		if err != nil {
			return out, fmt.Errorf("%s: %w", name, err)
		}
		clk.record(tr, name, tr.newOp(), start, end)
		passes := durationsMS(clk.passes(end))
		walls = append(walls, end.Sub(start).Seconds())
		maxes = append(maxes, slices.Max(append(passes, 0)))
		medians = append(medians, median(passes))
		if i == 0 {
			out.sol, out.edges = sol, clk.edges
		} else if sol.Passes != out.sol.Passes || sol.Density != out.sol.Density || !slices.Equal(sol.Set, out.sol.Set) {
			return out, fmt.Errorf("%s: repetition %d answered differently", name, i)
		}
	}
	out.wall, out.passMax, out.passMedian = median(walls), median(maxes), median(medians)
	return out, nil
}

// decodeFile decodes every edge of a BSG1 or text edge-list file through
// the edgeio shards, one goroutine per shard. It returns the node count
// (largest id + 1) and, when keep is set, the edges in file order.
func decodeFile(path string, workers int, keep bool) (int, [][2]int32, error) {
	isBin, err := edgeio.DetectBinary(path)
	if err != nil {
		return 0, nil, err
	}
	var shards []edgeio.Reader
	if isBin {
		src, err := edgeio.OpenBinarySource(path)
		if err != nil {
			return 0, nil, err
		}
		defer src.Close()
		shards = src.Shards(workers)
	} else {
		src, err := edgeio.OpenFileSource(path)
		if err != nil {
			return 0, nil, err
		}
		shards = src.Shards(workers)
	}
	parts := make([][][2]int32, len(shards))
	maxID := make([]int32, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c, ok := sh.(io.Closer); ok {
				defer c.Close()
			}
			maxID[i] = -1
			if errs[i] = sh.Reset(); errs[i] != nil {
				return
			}
			for {
				e, err := sh.Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					errs[i] = err
					return
				}
				maxID[i] = max(maxID[i], e.U, e.V)
				if keep {
					parts[i] = append(parts[i], [2]int32{e.U, e.V})
				}
			}
		}()
	}
	wg.Wait()
	n := int32(-1)
	var edges [][2]int32
	for i := range shards {
		if errs[i] != nil {
			return 0, nil, fmt.Errorf("decoding %s: %w", path, errs[i])
		}
		n = max(n, maxID[i])
		edges = append(edges, parts[i]...)
	}
	return int(n) + 1, edges, nil
}
