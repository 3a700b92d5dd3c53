package graph

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"densestream/internal/edgeio"
	"densestream/internal/par"
)

// Sharded file loading: the expensive part of parsing an edge list —
// line splitting, field tokenizing, weight parsing — runs on byte-range
// shards of the file through the edgeio layer, while label interning
// (inherently first-seen order) folds the shards' raw edges back in
// shard order. Because the shards together yield exactly the file's
// lines in order, the interned ids, the builder's edge order, and
// therefore the frozen graph are bit-identical to the sequential
// ReadUndirected/ReadDirected on the same bytes.

// rawEdge is one tokenized-but-uninterned edge line. The label strings
// alias the shard's line buffers; they are only retained until
// interning copies them into the LabelMap.
type rawEdge struct {
	u, v string
	w    float64
}

// scanFileSharded tokenizes the file's edge lines across workers,
// returning the per-shard raw edges in shard (= file) order. Any parse
// error is returned as-is; callers fall back to the sequential reader,
// which reports the canonical *ParseError with a line number.
func scanFileSharded(path string, weighted bool, workers int) ([][]rawEdge, error) {
	src, err := edgeio.OpenFileSource(path)
	if err != nil {
		return nil, err
	}
	shards := src.FileShards(par.Clamp(workers))
	out := make([][]rawEdge, len(shards))
	errs := make([]error, len(shards))
	pool := par.New(workers)
	pool.RunTasks(len(shards), func(i int) {
		sh := shards[i]
		defer sh.Close()
		if err := sh.Reset(); err != nil {
			errs[i] = err
			return
		}
		var local []rawEdge
		for {
			line, _, err := sh.NextLine()
			if err == io.EOF {
				break
			}
			if err != nil {
				errs[i] = err
				return
			}
			text := strings.TrimSpace(line)
			if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) < 2 {
				errs[i] = fmt.Errorf("want at least 2 fields, got %d", len(fields))
				return
			}
			w := 1.0
			if weighted && len(fields) >= 3 {
				w, err = strconv.ParseFloat(fields[2], 64)
				if err != nil {
					errs[i] = fmt.Errorf("bad weight: %v", err)
					return
				}
				if !(w > 0) || math.IsInf(w, 0) {
					errs[i] = ErrBadWeight
					return
				}
			}
			if fields[0] == fields[1] {
				continue // self loop: ignored by the density model
			}
			local = append(local, rawEdge{u: fields[0], v: fields[1], w: w})
		}
		out[i] = local
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ReadUndirectedFile parses an undirected edge-list file with the line
// scan sharded across workers (the sequential ReadUndirected is the
// fallback on any parse error, so error reporting keeps its line
// numbers). Output is bit-identical to ReadUndirected on the same
// bytes for every worker count.
func ReadUndirectedFile(path string, weighted bool, workers int) (*Undirected, *LabelMap, error) {
	if isBin, err := edgeio.DetectBinary(path); err == nil && isBin {
		return readUndirectedBinary(path, weighted)
	}
	sharded, err := scanFileSharded(path, weighted, workers)
	if err != nil {
		return readUndirectedSeq(path, weighted)
	}
	lm, edges := internShards(sharded)
	g, err := (&Builder{n: lm.Len(), edges: edges, weighted: weighted}).Freeze()
	if err != nil {
		return nil, nil, err
	}
	return g, lm, nil
}

// ReadDirectedFile is ReadUndirectedFile for directed edge lists.
func ReadDirectedFile(path string, workers int) (*Directed, *LabelMap, error) {
	if isBin, err := edgeio.DetectBinary(path); err == nil && isBin {
		return readDirectedBinary(path)
	}
	sharded, err := scanFileSharded(path, false, workers)
	if err != nil {
		return readDirectedSeq(path)
	}
	lm, edges := internShards(sharded)
	g, err := (&DirectedBuilder{n: lm.Len(), edges: edges}).Freeze()
	if err != nil {
		return nil, nil, err
	}
	return g, lm, nil
}

// internShards interns the shards' labels in file order straight into
// one edge buffer for the builder. The scan has already checked every
// edge: distinct labels never intern to the same id, and weights are
// positive and finite.
func internShards(sharded [][]rawEdge) (*LabelMap, []Edge) {
	total := 0
	for _, shard := range sharded {
		total += len(shard)
	}
	lm := NewLabelMap()
	edges := make([]Edge, 0, total)
	for _, shard := range sharded {
		for _, r := range shard {
			edges = append(edges, Edge{U: lm.ID(r.u), V: lm.ID(r.v), Weight: r.w})
		}
	}
	return lm, edges
}

func readUndirectedSeq(path string, weighted bool) (*Undirected, *LabelMap, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	return ReadUndirected(f, weighted)
}

func readDirectedSeq(path string) (*Directed, *LabelMap, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	return ReadDirected(f)
}
