package densestream_test

// Parity pin for the unified Solve API: every objective × backend pair
// must return bit-identical results to the internal engine it
// dispatches to, across ChungLu and RMAT inputs. Plus the cancellation
// contract: a context canceled mid-solve returns context.Canceled
// promptly with a partial trace, on all three runtimes.

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	ds "densestream"
	"densestream/internal/charikar"
	"densestream/internal/core"
	"densestream/internal/flow"
	"densestream/internal/mapreduce"
	"densestream/internal/sketch"
	"densestream/internal/stream"
)

// parityGraphs returns the undirected and directed inputs of the
// parity sweep: a ChungLu power-law graph and an RMAT graph (the RMAT
// edge list doubles as the undirected input via an undirected rebuild).
func parityGraphs(t *testing.T) (und []*ds.UndirectedGraph, dir []*ds.DirectedGraph) {
	t.Helper()
	cl, err := ds.GenerateChungLu(2000, 10000, 2.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	cld, err := ds.GenerateChungLuDirected(1500, 8000, 2.2, 11)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := ds.GenerateRMAT(10, 6000, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Undirected view of the RMAT edge list (self loops dropped,
	// parallel edges merged by Freeze).
	b := ds.NewBuilder(rm.NumNodes())
	rm.Edges(func(u, v int32) bool {
		if u != v {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
	rmu, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return []*ds.UndirectedGraph{cl, rmu}, []*ds.DirectedGraph{cld, rm}
}

func solveOK(t *testing.T, p ds.Problem, opts ...ds.Option) *ds.Solution {
	t.Helper()
	sol, err := ds.Solve(context.Background(), p, opts...)
	if err != nil {
		t.Fatalf("Solve(%s/%s): %v", p.Objective, p.Backend, err)
	}
	return sol
}

func wantSame(t *testing.T, label string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Solve diverges from the engine it dispatches to\n got: %+v\nwant: %+v", label, got, want)
	}
}

// asResult projects a Solution onto the undirected engines' result.
func asResult(s *ds.Solution) *core.Result {
	return &core.Result{Set: s.Set, Density: s.Density, Passes: s.Passes, Trace: s.Trace}
}

// asDirected projects a Solution onto the directed engines' result.
func asDirected(s *ds.Solution) *core.DirectedResult {
	return &core.DirectedResult{S: s.S, T: s.T, Density: s.Density, Passes: s.Passes, Trace: s.DirectedTrace}
}

// wantSameMR checks a MapReduce Solution against the undirected driver
// result: the common block, the round stats (wall clock aside), the
// spill volume, and the trace Solve projects from the rounds.
func wantSameMR(t *testing.T, label string, sol *ds.Solution, r *mapreduce.MRResult) {
	t.Helper()
	wantSame(t, label, &mapreduce.MRResult{Set: sol.Set, Density: sol.Density, Passes: sol.Passes, Rounds: stripWall(sol.MRRounds), SpilledBytes: sol.Stats.BytesSpilled},
		&mapreduce.MRResult{Set: r.Set, Density: r.Density, Passes: r.Passes, Rounds: stripWall(r.Rounds), SpilledBytes: r.SpilledBytes, Faults: r.Faults})
	if sol.MRFaults != nil {
		t.Fatalf("%s: fault-free run reports %+v", label, sol.MRFaults)
	}
	trace := make([]ds.PassStat, len(r.Rounds))
	for i, rd := range r.Rounds {
		trace[i] = rd.AsPassStat()
	}
	wantSame(t, label+" trace", sol.Trace, trace)
}

// stripWall zeroes the wall-clock field of MR rounds, the only
// per-round field that differs between two runs of the same job.
func stripWall(rounds []ds.MRRoundStat) []ds.MRRoundStat {
	out := make([]ds.MRRoundStat, len(rounds))
	for i, r := range rounds {
		r.Wall = 0
		out[i] = r
	}
	return out
}

// stripWallDirected is stripWall for directed MR rounds.
func stripWallDirected(rounds []ds.MRDirectedRoundStat) []ds.MRDirectedRoundStat {
	out := make([]ds.MRDirectedRoundStat, len(rounds))
	for i, r := range rounds {
		r.Wall = 0
		out[i] = r
	}
	return out
}

func TestSolveParityUndirectedObjectives(t *testing.T) {
	und, _ := parityGraphs(t)
	const eps = 0.5
	sketchCfg := ds.SketchConfig{Tables: 5, Buckets: 256, Seed: 1}
	for gi, g := range und {
		// Peel.
		sol := solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: eps, Graph: g})
		peel, err := core.UndirectedOpts(g, eps, core.Opts{})
		if err != nil {
			t.Fatal(err)
		}
		wantSame(t, "undirected/peel", asResult(sol), peel)

		// Stream.
		sol = solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: eps, Edges: ds.StreamGraph(g)})
		st, err := stream.UndirectedParallelOpts(stream.FromUndirected(g), eps, core.Opts{})
		if err != nil {
			t.Fatal(err)
		}
		wantSame(t, "undirected/stream", asResult(sol), st)
		if sol.Density != peel.Density {
			t.Fatalf("graph %d: stream density %v != peel %v", gi, sol.Density, peel.Density)
		}

		// StreamSketched: the engine with the same sketch shape, one lane
		// per scan worker (bit-identical at any lane count).
		sol = solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendStreamSketched, Eps: eps, Edges: ds.StreamGraph(g)},
			ds.WithSketch(sketchCfg))
		sk, err := sketch.NewStriped(sketchCfg.Tables, sketchCfg.Buckets, sketchCfg.Seed, stream.SketchScanLanes(3))
		if err != nil {
			t.Fatal(err)
		}
		skr, err := stream.UndirectedSketchedOpts(stream.FromUndirected(g), eps, sk, core.Opts{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		wantSame(t, "undirected/sketch", asResult(sol), skr)
		if sol.SketchMemoryWords != sk.MemoryWords() {
			t.Fatalf("sketch memory %d != %d", sol.SketchMemoryWords, sk.MemoryWords())
		}

		// MapReduce.
		sol = solveOK(t, ds.Problem{Objective: ds.ObjectiveUndirected, Backend: ds.BackendMapReduce, Eps: eps, Graph: g})
		mr, err := mapreduce.UndirectedOpts(g, eps, mapreduce.DefaultConfig, core.Opts{})
		if err != nil {
			t.Fatal(err)
		}
		wantSameMR(t, "undirected/mr", sol, mr)
		if sol.Density != peel.Density {
			t.Fatalf("graph %d: MR density %v != peel %v", gi, sol.Density, peel.Density)
		}
	}
}

func TestSolveParityWeightedAndAtLeastK(t *testing.T) {
	und, _ := parityGraphs(t)
	g := und[0]
	const eps, k = 0.5, 100

	// Weighted on peel and stream (unit weights on an unweighted graph).
	sol := solveOK(t, ds.Problem{Objective: ds.ObjectiveWeighted, Backend: ds.BackendPeel, Eps: eps, Graph: g})
	w, err := core.UndirectedWeightedOpts(g, eps, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	wantSame(t, "weighted/peel", asResult(sol), w)
	sol = solveOK(t, ds.Problem{Objective: ds.ObjectiveWeighted, Backend: ds.BackendStream, Eps: eps, WeightedEdges: ds.StreamWeightedGraph(g)})
	ws, err := stream.UndirectedWeightedParallelOpts(stream.FromUndirectedWeighted(g), eps, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	wantSame(t, "weighted/stream", asResult(sol), ws)

	// AtLeastK on all three exact backends.
	sol = solveOK(t, ds.Problem{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendPeel, K: k, Eps: eps, Graph: g})
	al, err := core.AtLeastKOpts(g, k, eps, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	wantSame(t, "atleastk/peel", asResult(sol), al)

	sol = solveOK(t, ds.Problem{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendStream, K: k, Eps: eps, Edges: ds.StreamGraph(g)})
	als, err := stream.AtLeastKParallelOpts(stream.FromUndirected(g), k, eps, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	wantSame(t, "atleastk/stream", asResult(sol), als)

	sol = solveOK(t, ds.Problem{Objective: ds.ObjectiveAtLeastK, Backend: ds.BackendMapReduce, K: k, Eps: eps, Graph: g})
	alm, err := mapreduce.AtLeastKOpts(g, k, eps, mapreduce.DefaultConfig, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	wantSameMR(t, "atleastk/mr", sol, alm)
}

func TestSolveParityDirectedObjectives(t *testing.T) {
	_, dir := parityGraphs(t)
	const eps, c, delta = 0.5, 1.0, 2.0
	for gi, g := range dir {
		sol := solveOK(t, ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendPeel, C: c, Eps: eps, Directed: g})
		peel, err := core.DirectedOpts(g, c, eps, core.Opts{})
		if err != nil {
			t.Fatal(err)
		}
		wantSame(t, "directed/peel", asDirected(sol), peel)

		sol = solveOK(t, ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendStream, C: c, Eps: eps, Edges: ds.StreamDirectedGraph(g)})
		st, err := stream.DirectedParallelOpts(stream.FromDirected(g), c, eps, core.Opts{})
		if err != nil {
			t.Fatal(err)
		}
		wantSame(t, "directed/stream", asDirected(sol), st)
		if sol.Density != peel.Density {
			t.Fatalf("graph %d: stream directed density %v != peel %v", gi, sol.Density, peel.Density)
		}

		sol = solveOK(t, ds.Problem{Objective: ds.ObjectiveDirected, Backend: ds.BackendMapReduce, C: c, Eps: eps, Directed: g})
		mr, err := mapreduce.DirectedOpts(g, c, eps, mapreduce.DefaultConfig, core.Opts{})
		if err != nil {
			t.Fatal(err)
		}
		wantSame(t, "directed/mr", &mapreduce.MRDirectedResult{S: sol.S, T: sol.T, Density: sol.Density, Passes: sol.Passes, Rounds: stripWallDirected(sol.MRDirectedRounds), SpilledBytes: sol.Stats.BytesSpilled},
			&mapreduce.MRDirectedResult{S: mr.S, T: mr.T, Density: mr.Density, Passes: mr.Passes, Rounds: stripWallDirected(mr.Rounds), SpilledBytes: mr.SpilledBytes, Faults: mr.Faults})
		trace := make([]ds.DirectedPassStat, len(mr.Rounds))
		for i, rd := range mr.Rounds {
			trace[i] = rd.AsDirectedPassStat()
		}
		wantSame(t, "directed/mr trace", sol.DirectedTrace, trace)

		swSol := solveOK(t, ds.Problem{Objective: ds.ObjectiveDirectedSweep, Backend: ds.BackendPeel, Delta: delta, Eps: eps, Directed: g})
		sw, err := core.DirectedSweepOpts(g, delta, eps, core.Opts{})
		if err != nil {
			t.Fatal(err)
		}
		wantSame(t, "sweep/peel", swSol.Sweep, sw)
		wantSame(t, "sweep/peel best", asDirected(swSol), sw.Best)
	}
}

func TestSolveParityExactAndGreedy(t *testing.T) {
	g, err := ds.GenerateChungLu(400, 1600, 2.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	sol := solveOK(t, ds.Problem{Objective: ds.ObjectiveExact, Graph: g})
	ex, err := flow.ExactDensest(g)
	if err != nil {
		t.Fatal(err)
	}
	wantSame(t, "exact/peel", sol.Set, ex.Set)
	if sol.Density != ex.Density || sol.ExactNumer != ex.Numer || sol.ExactDenom != ex.Denom || sol.Passes != ex.FlowCalls {
		t.Fatalf("exact: Solve diverges: %+v vs %+v", sol, ex)
	}

	sol = solveOK(t, ds.Problem{Objective: ds.ObjectiveGreedy, Graph: g})
	gr, err := charikar.Densest(g)
	if err != nil {
		t.Fatal(err)
	}
	wantSame(t, "greedy/peel", sol.Set, gr.Set)
	if sol.Density != gr.Density || sol.Passes != gr.Peels {
		t.Fatalf("greedy: Solve diverges: %+v vs %+v", sol, gr)
	}
}

// cancellationProblems enumerates one problem per runtime, all on the
// same input, for the cancellation contract tests.
func cancellationProblems(t *testing.T) map[string]ds.Problem {
	t.Helper()
	g, err := ds.GenerateChungLu(3000, 15000, 2.1, 17)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]ds.Problem{
		"peel":   {Objective: ds.ObjectiveUndirected, Backend: ds.BackendPeel, Eps: 0, Graph: g},
		"stream": {Objective: ds.ObjectiveUndirected, Backend: ds.BackendStream, Eps: 0, Edges: ds.StreamGraph(g)},
		"mr":     {Objective: ds.ObjectiveUndirected, Backend: ds.BackendMapReduce, Eps: 0, Graph: g},
	}
}

func TestSolveCancellationMidSolve(t *testing.T) {
	for name, p := range cancellationProblems(t) {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			hookCalls := 0
			sol, err := ds.Solve(ctx, p, ds.WithProgress(func(ds.PassStat) bool {
				hookCalls++
				if hookCalls == 2 {
					cancel() // cancel at the start of pass 2, mid-solve
				}
				return true
			}))
			if sol != nil {
				t.Fatalf("canceled solve returned a solution")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			var pe *ds.PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("want *PartialError, got %T: %v", err, err)
			}
			if pe.Passes < 1 || pe.Passes > 2 {
				t.Fatalf("cancellation not within one pass: stopped after %d passes (hook ran %d times)", pe.Passes, hookCalls)
			}
			if len(pe.Trace) == 0 {
				t.Fatalf("partial error carries no trace")
			}
		})
	}
}

func TestSolvePreCanceledContext(t *testing.T) {
	for name, p := range cancellationProblems(t) {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := ds.Solve(ctx, p)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
		})
	}
}

// TestSolveExactGreedyPreCanceled pins the cancellation contract on the
// two objectives whose inner loops gained ctx polls: a canceled context
// aborts with a *PartialError before any work.
func TestSolveExactGreedyPreCanceled(t *testing.T) {
	g, err := ds.GenerateChungLu(300, 1200, 2.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []ds.Objective{ds.ObjectiveExact, ds.ObjectiveGreedy} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := ds.Solve(ctx, ds.Problem{Objective: obj, Graph: g})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", obj, err)
		}
		var pe *ds.PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: want *PartialError, got %T", obj, err)
		}
	}
}

// TestSolveExactMidRunCancellation lands a deadline inside the flow
// computation (the instance takes far longer than the deadline) and
// checks the solver aborts mid-flow with the uniform error shape —
// the ROADMAP gap was that Exact only checked the context at start.
func TestSolveExactMidRunCancellation(t *testing.T) {
	g, _, err := ds.GeneratePlantedDense(3000, 12000, 2.2, 40, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, serr := ds.Solve(ctx, ds.Problem{Objective: ds.ObjectiveExact, Graph: g})
	if !errors.Is(serr, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", serr)
	}
	var pe *ds.PartialError
	if !errors.As(serr, &pe) {
		t.Fatalf("want *PartialError, got %T: %v", serr, serr)
	}
}

func TestSolveProgressStop(t *testing.T) {
	for name, p := range cancellationProblems(t) {
		t.Run(name, func(t *testing.T) {
			calls := 0
			_, err := ds.Solve(context.Background(), p, ds.WithProgress(func(ds.PassStat) bool {
				calls++
				return calls < 3 // stop at the start of pass 3
			}))
			if !errors.Is(err, ds.ErrStopped) {
				t.Fatalf("want ErrStopped, got %v", err)
			}
			var pe *ds.PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("want *PartialError, got %T", err)
			}
			if pe.Passes != 2 || len(pe.Trace) == 0 {
				t.Fatalf("want 2 completed passes with a trace, got %d (%d entries)", pe.Passes, len(pe.Trace))
			}
		})
	}
}

func TestSolveDeadline(t *testing.T) {
	p := cancellationProblems(t)["peel"]
	ctx, cancel := context.WithTimeout(context.Background(), 0) // already expired
	defer cancel()
	_, err := ds.Solve(ctx, p)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestSolveValidation(t *testing.T) {
	g, err := ds.GenerateChungLu(100, 300, 2.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := ds.GenerateChungLuDirected(100, 300, 2.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := []ds.Problem{
		{},                       // no input
		{Graph: g, Directed: dg}, // two inputs
		{Objective: ds.ObjectiveDirected, Graph: g, C: 1},                                            // wrong input kind
		{Objective: ds.ObjectiveExact, Backend: ds.BackendStream, Graph: g},                          // exact is peel-only
		{Objective: ds.ObjectiveDirectedSweep, Backend: ds.BackendMapReduce, Directed: dg, Delta: 2}, // no MR sweep
		{Objective: ds.ObjectiveWeighted, Backend: ds.BackendStreamSketched, Graph: g},               // sketch is undirected-only
		{Backend: ds.BackendMapReduce, Edges: ds.StreamGraph(g)},                                     // MR needs a graph
	}
	for i, p := range bad {
		if _, err := ds.Solve(context.Background(), p); err == nil {
			t.Errorf("bad problem %d accepted", i)
		}
	}
	// Negative MR shapes are rejected rather than silently defaulted.
	if _, err := ds.Solve(context.Background(),
		ds.Problem{Backend: ds.BackendMapReduce, Graph: g, Eps: 1},
		ds.WithMapReduceConfig(ds.MRConfig{Mappers: -1})); err == nil {
		t.Error("negative MR config accepted")
	}
	// A nil context is treated as context.Background().
	if _, err := ds.Solve(nil, ds.Problem{Graph: g, Eps: 1}); err != nil { //nolint:staticcheck
		t.Errorf("nil ctx: %v", err)
	}
}
