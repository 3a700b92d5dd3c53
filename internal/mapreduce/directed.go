package mapreduce

import (
	"fmt"
	"math"
	"time"

	"densestream/internal/core"
	"densestream/internal/graph"
)

// DirectedRoundStat records one pass of the directed MR driver. As with
// RoundStat, only Wall and PerMachine depend on the cluster shape.
type DirectedRoundStat struct {
	Pass         int            `json:"pass"`
	SizeS        int            `json:"sizeS"`
	SizeT        int            `json:"sizeT"`
	Edges        int64          `json:"edges"`
	Density      float64        `json:"density"`
	Removed      int            `json:"removed"`
	PeeledSide   byte           `json:"peeledSide"`
	Wall         time.Duration  `json:"wall"`
	Shuffle      int64          `json:"shuffle"`
	ShuffleBytes int64          `json:"shuffleBytes"`
	PerMachine   []MachineStats `json:"perMachine"`
}

// MRDirectedResult is the output of the directed MapReduce driver.
type MRDirectedResult struct {
	S, T    []int32
	Density float64
	Passes  int
	Rounds  []DirectedRoundStat
	// SpilledBytes totals the bytes the run wrote to spill files under
	// the Config.SpillBytes budget (0 for a fully resident run).
	SpilledBytes int64
	// Faults aggregates every fault-tolerance event of the run; see
	// MRResult.Faults.
	Faults FaultStats
}

// AsDirectedPassStat projects a directed round onto the shared directed
// per-pass stat shape, dropping the cluster-only fields.
func (r DirectedRoundStat) AsDirectedPassStat() core.DirectedPassStat {
	st := core.DirectedPassStat{
		Pass: r.Pass, SizeS: r.SizeS, SizeT: r.SizeT,
		Edges: r.Edges, Density: r.Density, PeeledSide: r.PeeledSide,
	}
	if r.PeeledSide == 'S' {
		st.RemovedS = r.Removed
	} else {
		st.RemovedT = r.Removed
	}
	return st
}

func directedRoundTrace(rounds []DirectedRoundStat) []core.DirectedPassStat {
	out := make([]core.DirectedPassStat, len(rounds))
	for i, r := range rounds {
		out[i] = r.AsDirectedPassStat()
	}
	return out
}

// Directed runs Algorithm 3 as MapReduce rounds for a fixed ratio c. The
// resident edge dataset always contains exactly E(S, T), kept in
// source-keyed orientation; per pass one degree job computes out-degrees
// (peeling S) or in-degrees (peeling T, keying by the destination in the
// map phase instead of re-orienting the dataset), and one marker-join
// filter deletes the removed side's edges. The result matches
// core.Directed exactly.
func Directed(g *graph.Directed, c, eps float64, cfg Config) (*MRDirectedResult, error) {
	return DirectedOpts(g, c, eps, cfg, core.Opts{})
}

// DirectedOpts is Directed with an execution configuration; see
// UndirectedOpts for the cancellation semantics (the partial trace is
// carried in DirectedTrace).
func DirectedOpts(g *graph.Directed, c, eps float64, cfg Config, o core.Opts) (*MRDirectedResult, error) {
	if eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("mapreduce: epsilon must be a finite value >= 0, got %v", eps)
	}
	if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		return nil, fmt.Errorf("mapreduce: c must be a finite value > 0, got %v", c)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := o.Begin(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, graph.ErrEmptyGraph
	}

	defer e.Cleanup()

	aliveS := make([]bool, n)
	aliveT := make([]bool, n)
	removedAtS := make([]int, n)
	removedAtT := make([]int, n)
	deg := make([]int32, n) // this round's degrees, reloaded every round
	sizeS, sizeT := n, n
	bestPass := 0
	bestDensity := -1.0
	var rounds []DirectedRoundStat
	pass := 0
	// Initial state for the first checkpoint: ρ = |E| / √(n·n).
	prev := core.PassStat{Nodes: 2 * n, Edges: g.NumEdges(), Density: float64(g.NumEdges()) / float64(n)}

	ck := newCheckpointer(e, "directed", n, g.NumEdges(), eps, c, 0)
	var edges *Dataset[int32, int32]
	if man, restored, err := ck.resume(); err != nil {
		return nil, err
	} else if man != nil {
		if len(man.RemovedAtS) != n || len(man.RemovedAtT) != n {
			return nil, fmt.Errorf("mapreduce: checkpoint removal schedules have %d/%d nodes, want %d", len(man.RemovedAtS), len(man.RemovedAtT), n)
		}
		edges = restored
		copy(removedAtS, man.RemovedAtS)
		copy(removedAtT, man.RemovedAtT)
		sizeS, sizeT = 0, 0
		for u := 0; u < n; u++ {
			aliveS[u] = removedAtS[u] == 0
			aliveT[u] = removedAtT[u] == 0
			if aliveS[u] {
				sizeS++
			}
			if aliveT[u] {
				sizeT++
			}
		}
		bestPass, bestDensity = man.BestPass, man.BestDensity
		rounds = append(rounds, man.DirectedRounds...)
		pass = man.Round
		if len(rounds) > 0 {
			prev = rounds[len(rounds)-1].AsDirectedPassStat().AsPassStat()
		}
	} else {
		for u := 0; u < n; u++ {
			aliveS[u] = true
			aliveT[u] = true
		}
		// Edge dataset: key = source (in S), value = destination (in T).
		recs := make([]Pair[int32, int32], 0, g.NumEdges())
		g.Edges(func(u, v int32) bool {
			recs = append(recs, Pair[int32, int32]{Key: u, Value: v})
			return true
		})
		edges = Shard(e, recs)
		if err := maybeSpill(e, edges); err != nil {
			return nil, err
		}
	}

	for sizeS > 0 && sizeT > 0 {
		if err := o.Checkpoint(prev); err != nil {
			return nil, &core.PartialError{Passes: pass, DirectedTrace: directedRoundTrace(rounds), Err: err}
		}
		pass++
		rd := e.StartRound()

		numEdges := int64(edges.Len())
		rho := float64(numEdges) / math.Sqrt(float64(sizeS)*float64(sizeT))
		if rho > bestDensity {
			bestDensity = rho
			bestPass = pass
		}

		peelS := float64(sizeS) >= c*float64(sizeT)
		stat := DirectedRoundStat{Pass: pass, Edges: numEdges, Density: rho}

		// Degree job keyed on the side being peeled: out-degrees for S,
		// in-degrees (map-side flip) for T.
		degs, _, err := degreeJob(rd, edges, false, !peelS)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: directed pass %d degree job: %w", pass, err)
		}
		if err := loadDegrees(degs, deg); err != nil {
			return nil, fmt.Errorf("mapreduce: directed pass %d degrees: %w", pass, err)
		}

		var markers []Pair[int32, int32]
		if peelS {
			cut := (1 + eps) * float64(numEdges) / float64(sizeS)
			for u := 0; u < n; u++ {
				if aliveS[u] && float64(deg[u]) <= cut {
					markers = append(markers, Pair[int32, int32]{Key: int32(u), Value: mark})
					aliveS[u] = false
					removedAtS[u] = pass
					stat.Removed++
				}
			}
			sizeS -= stat.Removed
			stat.PeeledSide = 'S'
		} else {
			cut := (1 + eps) * float64(numEdges) / float64(sizeT)
			for v := 0; v < n; v++ {
				if aliveT[v] && float64(deg[v]) <= cut {
					markers = append(markers, Pair[int32, int32]{Key: int32(v), Value: mark})
					aliveT[v] = false
					removedAtT[v] = pass
					stat.Removed++
				}
			}
			sizeT -= stat.Removed
			stat.PeeledSide = 'T'
		}
		if stat.Removed == 0 {
			return nil, fmt.Errorf("mapreduce: directed pass %d removed no nodes", pass)
		}

		// One filter join drops the removed side's edges. Peeling T, the
		// map phase pivots each edge on its destination for the join and
		// the reducer pivots survivors back, so the resident dataset
		// keeps its source-keyed orientation.
		prevEdges := edges
		edges, _, err = filterJob(rd, edges, markers, !peelS, !peelS)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: directed pass %d filter: %w", pass, err)
		}
		prevEdges.Discard()

		st := rd.Stats()
		stat.SizeS = sizeS
		stat.SizeT = sizeT
		stat.Wall = rd.Wall()
		stat.Shuffle = st.ShuffleRecords
		stat.ShuffleBytes = st.ShuffleBytes
		stat.PerMachine = st.PerMachine
		rounds = append(rounds, stat)
		prev = stat.AsDirectedPassStat().AsPassStat()

		if err := ck.write(pass, edges, func(m *ckptManifest) {
			m.BestPass, m.BestDensity = bestPass, bestDensity
			m.RemovedAtS = removedAtS
			m.RemovedAtT = removedAtT
			m.DirectedRounds = rounds
		}); err != nil {
			return nil, err
		}
		if err := e.simulateCrash(pass); err != nil {
			return nil, err
		}
	}
	ck.clear()

	var setS, setT []int32
	for u := 0; u < n; u++ {
		if removedAtS[u] == 0 || removedAtS[u] >= bestPass {
			setS = append(setS, int32(u))
		}
		if removedAtT[u] == 0 || removedAtT[u] >= bestPass {
			setT = append(setT, int32(u))
		}
	}
	fs := e.FaultStats()
	return &MRDirectedResult{S: setS, T: setT, Density: bestDensity, Passes: pass, Rounds: rounds, SpilledBytes: e.SpilledBytes(), Faults: fs}, nil
}
