package mapreduce

import "fmt"

// The two jobs every peeling driver is built from: the degree count and
// the marker join of §5.2. Both operate on the resident edge Dataset;
// per-round markers enter as extra records so the O(E) edge set is
// never copied driver-side.

// mark is the paper's '$' tombstone: a value that cannot be a node id.
const mark int32 = -1

// degreeJob computes (node, degree) over the resident edge dataset.
// bothEnds duplicates each edge into both orientations exactly as §5.2
// prescribes (the undirected degree round); flip keys each edge by its
// Value endpoint instead (the directed driver peeling T computes
// in-degrees this way without re-orienting the dataset). When the
// engine's Combine option is on, per-shard combiners pre-sum partial
// degrees, shipping one record per distinct node per shard.
func degreeJob(rd *Round, edges *Dataset[int32, int32], bothEnds, flip bool) (*Dataset[int32, int32], Stats, error) {
	if rd.e.cfg.Combine {
		mapFn := func(u, v int32, emit func(int32, int32)) {
			k, o := u, v
			if flip {
				k, o = v, u
			}
			emit(k, 1)
			if bothEnds {
				emit(o, 1)
			}
		}
		combineFn := func(_ int32, counts []int32) int32 {
			var total int32
			for _, c := range counts {
				total += c
			}
			return total
		}
		reduceFn := func(u int32, partials []int32, emit func(int32, int32)) {
			var total int32
			for _, p := range partials {
				total += p
			}
			emit(u, total)
		}
		return RunJob(rd, edges, nil, mapFn, combineFn, reduceFn)
	}
	mapFn := func(u, v int32, emit func(int32, int32)) {
		k, o := u, v
		if flip {
			k, o = v, u
		}
		emit(k, o)
		if bothEnds {
			emit(o, k)
		}
	}
	reduceFn := func(u int32, neighbors []int32, emit func(int32, int32)) {
		emit(u, int32(len(neighbors)))
	}
	return RunJob(rd, edges, nil, mapFn, nil, reduceFn)
}

// filterJob is the §5.2 marker join: the resident edges plus (node, $)
// markers, keyed by the pivot endpoint; reducers drop every edge whose
// pivot node is marked. flipMap pivots each edge on its Value endpoint
// on the way in (markers are never flipped — they already carry their
// node as key); flipOut re-pivots the survivors on the way out,
// chaining directly into the next join.
func filterJob(rd *Round, edges *Dataset[int32, int32], markers []Pair[int32, int32], flipMap, flipOut bool) (*Dataset[int32, int32], Stats, error) {
	mapFn := func(k, v int32, emit func(int32, int32)) {
		if flipMap && v != mark {
			emit(v, k)
			return
		}
		emit(k, v)
	}
	reduceFn := func(k int32, values []int32, emit func(int32, int32)) {
		for _, v := range values {
			if v == mark {
				return // node k was removed: drop all of its edges
			}
		}
		for _, v := range values {
			if flipOut {
				emit(v, k)
			} else {
				emit(k, v)
			}
		}
	}
	out, stats, err := RunJob(rd, edges, markers, mapFn, nil, reduceFn)
	if err != nil {
		return nil, stats, err
	}
	// The filter output is the next round's resident edge dataset —
	// the only job output that lives past its round — so the spill
	// budget is enforced here, not in RunJob: degree datasets are
	// consumed and discarded within the round and would only waste a
	// write+read round trip.
	if err := maybeSpill(rd.e, out); err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// loadDegrees reads a degree job's output into deg, the coordinator's
// O(n) degree table: it is cleared first, so an alive node without a
// degree record (no surviving edge) reads 0. The consumed dataset is
// discarded. A node id outside the table can only come from a corrupt
// checkpoint and is reported rather than indexed.
func loadDegrees(degs *Dataset[int32, int32], deg []int32) error {
	clear(deg)
	var bad error
	err := degs.Each(func(u, d int32) {
		if uint32(u) >= uint32(len(deg)) {
			if bad == nil {
				bad = fmt.Errorf("degree record for node %d outside [0, %d)", u, len(deg))
			}
			return
		}
		deg[u] = d
	})
	degs.Discard()
	if err != nil {
		return err
	}
	return bad
}

// DegreeJobStats runs the degree job over a whole graph's edge set,
// with or without the combiner, and returns the job statistics; used by
// the A4 ablation to quantify the combiner's shuffle savings.
func DegreeJobStats(g interface {
	NumEdges() int64
	Edges(func(u, v int32, w float64) bool)
}, combined bool) (Stats, error) {
	cfg := DefaultConfig
	cfg.Combine = combined
	e, err := NewEngine(cfg)
	if err != nil {
		return Stats{}, err
	}
	recs := make([]Pair[int32, int32], 0, g.NumEdges())
	g.Edges(func(u, v int32, _ float64) bool {
		recs = append(recs, Pair[int32, int32]{Key: u, Value: v})
		return true
	})
	_, stats, err := degreeJob(e.StartRound(), Shard(e, recs), true, false)
	return stats, err
}
