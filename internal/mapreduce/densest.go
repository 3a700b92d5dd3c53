package mapreduce

import (
	"fmt"
	"math"
	"time"

	"densestream/internal/core"
	"densestream/internal/graph"
)

// RoundStat records one pass of the MapReduce peeling driver: the state
// of the distributed edge set as scanned at the start of the round, plus
// the cost of the round's jobs (the Figure 6.7 series). Wall and
// PerMachine describe the run's cluster shape, not the algorithm: all
// other fields are bit-identical for every (Mappers, Reducers,
// Machines) configuration.
type RoundStat struct {
	Pass         int            `json:"pass"`
	Nodes        int            `json:"nodes"`
	Edges        int64          `json:"edges"`
	Density      float64        `json:"density"`
	Removed      int            `json:"removed"`
	Wall         time.Duration  `json:"wall"`         // wall-clock of the round's MR jobs (ns)
	Shuffle      int64          `json:"shuffle"`      // records crossing map→reduce in this round
	ShuffleBytes int64          `json:"shuffleBytes"` // the same in bytes
	PerMachine   []MachineStats `json:"perMachine"`   // shuffle volume per simulated machine
}

// MRResult is the output of the MapReduce drivers.
type MRResult struct {
	Set     []int32
	Density float64
	Passes  int
	Rounds  []RoundStat
	// SpilledBytes totals the bytes the run wrote to spill files under
	// the Config.SpillBytes budget (0 for a fully resident run).
	SpilledBytes int64
	// Faults aggregates every fault-tolerance event of the run:
	// injected task loss, speculative re-execution, and checkpointing.
	// Zero when the run saw no failure plan and no checkpointing.
	Faults FaultStats
}

// AsPassStat projects a round onto the shared per-pass stat shape; the
// cluster-only fields (Wall, Shuffle, PerMachine) are dropped. Used for
// progress hooks and partial traces, which are uniform across the
// peeling, streaming, and MapReduce runtimes.
func (r RoundStat) AsPassStat() core.PassStat {
	return core.PassStat{Pass: r.Pass, Nodes: r.Nodes, Edges: r.Edges, Density: r.Density, Removed: r.Removed}
}

// roundTrace converts a round trace into the shared PassStat shape for
// a core.PartialError.
func roundTrace(rounds []RoundStat) []core.PassStat {
	out := make([]core.PassStat, len(rounds))
	for i, r := range rounds {
		out[i] = r.AsPassStat()
	}
	return out
}

// edgeDataset uploads a graph's edge list onto the cluster once; the
// peeling drivers keep it on the cluster — each round's filter jobs
// produce the next round's partitioned dataset, and only the
// O(removed) markers enter a round from the driver. With a spill
// budget the upload itself lands over-budget partitions on disk, so
// the edge set is out-of-core from the first round.
func edgeDataset(e *Engine, g *graph.Undirected) (*Dataset[int32, int32], error) {
	recs := make([]Pair[int32, int32], 0, g.NumEdges())
	g.Edges(func(u, v int32, _ float64) bool {
		recs = append(recs, Pair[int32, int32]{Key: u, Value: v})
		return true
	})
	d := Shard(e, recs)
	if err := maybeSpill(e, d); err != nil {
		return nil, err
	}
	return d, nil
}

// Undirected runs Algorithm 1 as a sequence of MapReduce rounds, exactly
// following §5.2: per pass, one degree job, then two marker-join filter
// jobs that delete the below-threshold nodes and their incident edges.
// The driver itself keeps only O(n) state (the alive set), playing the
// role of the cluster coordinator.
//
// The result is identical to stream.Undirected with an exact counter
// (and therefore to core.Undirected); tests assert exact agreement.
func Undirected(g *graph.Undirected, eps float64, cfg Config) (*MRResult, error) {
	return UndirectedOpts(g, eps, cfg, core.Opts{})
}

// UndirectedOpts is Undirected with an execution configuration: o.Ctx
// and o.Progress interrupt the driver between rounds with a
// core.PartialError whose Trace carries the completed rounds (projected
// onto PassStat). o.Workers is ignored — cluster parallelism comes from
// cfg.
func UndirectedOpts(g *graph.Undirected, eps float64, cfg Config, o core.Opts) (*MRResult, error) {
	if eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("mapreduce: epsilon must be a finite value >= 0, got %v", eps)
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
	if g.Weighted() {
		return nil, fmt.Errorf("mapreduce: Undirected needs an unweighted graph")
	}
	defer e.Cleanup()

	alive := make([]bool, n)
	removedAt := make([]int, n)
	deg := make([]int32, n) // this round's degrees, reloaded every round
	nodes := n
	bestPass := 0
	bestDensity := -1.0
	var rounds []RoundStat
	pass := 0
	prev := core.PassStat{Nodes: n, Edges: g.NumEdges(), Density: g.Density()}

	ck := newCheckpointer(e, "undirected", n, g.NumEdges(), eps, 0, 0)
	var edges *Dataset[int32, int32]
	if man, restored, err := ck.resume(); err != nil {
		return nil, err
	} else if man != nil {
		if len(man.RemovedAt) != n {
			return nil, fmt.Errorf("mapreduce: checkpoint removal schedule has %d nodes, want %d", len(man.RemovedAt), n)
		}
		edges = restored
		copy(removedAt, man.RemovedAt)
		nodes = 0
		for u := range alive {
			alive[u] = removedAt[u] == 0
			if alive[u] {
				nodes++
			}
		}
		bestPass, bestDensity = man.BestPass, man.BestDensity
		rounds = append(rounds, man.Rounds...)
		pass = man.Round
		if len(rounds) > 0 {
			prev = rounds[len(rounds)-1].AsPassStat()
		}
	} else {
		for u := range alive {
			alive[u] = true
		}
		if edges, err = edgeDataset(e, g); err != nil {
			return nil, err
		}
	}

	threshold := 2 * (1 + eps)
	for nodes > 0 {
		if err := o.Checkpoint(prev); err != nil {
			return nil, &core.PartialError{Passes: pass, Trace: roundTrace(rounds), Err: err}
		}
		pass++
		rd := e.StartRound()

		// Job 1: degrees of the surviving subgraph.
		degs, _, err := degreeJob(rd, edges, true, false)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: pass %d degree job: %w", pass, err)
		}

		numEdges := int64(edges.Len())
		rho := float64(numEdges) / float64(nodes)
		if rho > bestDensity {
			bestDensity = rho
			bestPass = pass
		}
		cut := threshold * rho

		// Decide removals: nodes with degree <= cut. Isolated alive nodes
		// have no degree record and count as degree 0.
		if err := loadDegrees(degs, deg); err != nil {
			return nil, fmt.Errorf("mapreduce: pass %d degrees: %w", pass, err)
		}
		var markers []Pair[int32, int32]
		removed := 0
		for u := 0; u < n; u++ {
			if alive[u] && float64(deg[u]) <= cut {
				markers = append(markers, Pair[int32, int32]{Key: int32(u), Value: mark})
				alive[u] = false
				removedAt[u] = pass
				removed++
			}
		}
		if removed == 0 {
			return nil, fmt.Errorf("mapreduce: pass %d removed no nodes (ρ=%v)", pass, rho)
		}

		// Jobs 2+3: drop edges incident on marked nodes, pivoting on the
		// first and then the second endpoint. Replaced datasets discard
		// their spill files immediately, keeping disk usage at the live
		// working set.
		half, _, err := filterJob(rd, edges, markers, false, true)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: pass %d filter 1: %w", pass, err)
		}
		edges.Discard()
		edges, _, err = filterJob(rd, half, markers, false, false)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: pass %d filter 2: %w", pass, err)
		}
		half.Discard()

		st := rd.Stats()
		rounds = append(rounds, RoundStat{
			Pass: pass, Nodes: nodes, Edges: numEdges, Density: rho,
			Removed: removed, Wall: rd.Wall(),
			Shuffle: st.ShuffleRecords, ShuffleBytes: st.ShuffleBytes,
			PerMachine: st.PerMachine,
		})
		prev = rounds[len(rounds)-1].AsPassStat()
		nodes -= removed

		if err := ck.write(pass, edges, func(m *ckptManifest) {
			m.BestPass, m.BestDensity = bestPass, bestDensity
			m.RemovedAt = removedAt
			m.Rounds = rounds
		}); err != nil {
			return nil, err
		}
		if err := e.simulateCrash(pass); err != nil {
			return nil, err
		}
	}
	ck.clear()

	var set []int32
	for u, p := range removedAt {
		if p == 0 || p >= bestPass {
			set = append(set, int32(u))
		}
	}
	fs := e.FaultStats()
	return &MRResult{Set: set, Density: bestDensity, Passes: pass, Rounds: rounds, SpilledBytes: e.SpilledBytes(), Faults: fs}, nil
}
