package mapreduce

import (
	"fmt"
	"math"
	"sort"

	"densestream/internal/core"
	"densestream/internal/graph"
)

// AtLeastK runs Algorithm 2 (densest subgraph with at least k nodes) as
// MapReduce rounds: one degree job per pass, then the driver selects the
// ⌊ε/(1+ε)·|S|⌋ lowest-degree below-threshold nodes and removes them
// with the two marker-join filter jobs. Results match core.AtLeastK
// exactly.
func AtLeastK(g *graph.Undirected, k int, eps float64, cfg Config) (*MRResult, error) {
	return AtLeastKOpts(g, k, eps, cfg, core.Opts{})
}

// AtLeastKOpts is AtLeastK with an execution configuration; see
// UndirectedOpts for the cancellation semantics.
func AtLeastKOpts(g *graph.Undirected, k int, eps float64, cfg Config, o core.Opts) (*MRResult, error) {
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
		return nil, fmt.Errorf("mapreduce: AtLeastK needs an unweighted graph")
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("mapreduce: k=%d out of range [1,%d]", k, n)
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

	ck := newCheckpointer(e, "atleastk", n, g.NumEdges(), eps, 0, k)
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
	frac := eps / (1 + eps)
	type cand struct {
		u   int32
		deg int32
	}
	var candidates []cand
	for nodes >= k {
		if err := o.Checkpoint(prev); err != nil {
			return nil, &core.PartialError{Passes: pass, Trace: roundTrace(rounds), Err: err}
		}
		pass++
		rd := e.StartRound()

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

		if err := loadDegrees(degs, deg); err != nil {
			return nil, fmt.Errorf("mapreduce: pass %d degrees: %w", pass, err)
		}
		candidates = candidates[:0]
		for u := 0; u < n; u++ {
			if alive[u] && float64(deg[u]) <= cut {
				candidates = append(candidates, cand{u: int32(u), deg: deg[u]})
			}
		}
		if len(candidates) == 0 {
			return nil, fmt.Errorf("mapreduce: pass %d found no candidates", pass)
		}
		quota := int(frac * float64(nodes))
		if quota < 1 {
			quota = 1
		}
		if quota > len(candidates) {
			quota = len(candidates)
		}
		sort.Slice(candidates, func(i, j int) bool {
			if candidates[i].deg != candidates[j].deg {
				return candidates[i].deg < candidates[j].deg
			}
			return candidates[i].u < candidates[j].u
		})
		var markers []Pair[int32, int32]
		for _, c := range candidates[:quota] {
			markers = append(markers, Pair[int32, int32]{Key: c.u, Value: mark})
			alive[c.u] = false
			removedAt[c.u] = pass
		}

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
			Removed: quota, Wall: rd.Wall(),
			Shuffle: st.ShuffleRecords, ShuffleBytes: st.ShuffleBytes,
			PerMachine: st.PerMachine,
		})
		prev = rounds[len(rounds)-1].AsPassStat()
		nodes -= quota

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
	if bestPass == 0 {
		return nil, fmt.Errorf("mapreduce: no intermediate subgraph of size >= %d", k)
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
