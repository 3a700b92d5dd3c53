package graph

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync/atomic"

	"densestream/internal/edgeio"
	"densestream/internal/par"
)

// Sharded file loading: the expensive part of parsing an edge list —
// line splitting, field tokenizing, weight parsing — runs on byte-range
// shards of the file through the edgeio layer, and the shards' edges
// are relabelled to dense ids in shard (= file) order. Because the
// shards together yield exactly the file's lines in order, the dense
// ids, the edge order csrRows sees, and therefore the frozen graph are
// bit-identical to the sequential ReadUndirected/ReadDirected on the
// same bytes.
//
// A file whose every line edgeio.ParseCanonicalLine accepts — SNAP-style
// canonical integer labels, the common case — never builds a label
// string: the shards parse the labels into int32 straight from the
// read buffer, each into its own region of one edge buffer, and
// relabelRegions, shared with the BSG1 loader, relabels the regions in
// place in parallel. A canonical label is exactly strconv.Itoa of its
// value, so this is the string interning under another key. The first
// line the fast path cannot read abandons it for the whole file, and
// the string path below reparses every line as the sequential reader
// would.

// rawEdge is one tokenized-but-uninterned edge line of the string path,
// which runs only on files the canonical-integer fast path gave up on.
// The label strings alias the shard's line buffers; they are only
// retained until interning copies them into the LabelMap.
type rawEdge struct {
	u, v string
	w    float64
}

// scanCanonical is the fast path of the text loaders. It sizes one edge
// buffer by the shards' line bounds, has every shard parse its lines
// into its own region of it, and relabels the regions in place through
// relabelRegions over ids up to the largest label. ok is false when any
// line is not canonical (or any read fails); the caller then takes the
// string path for the whole file.
func scanCanonical(path string, weighted bool, workers int) (lm *LabelMap, regions [][]Edge, ok bool) {
	src, err := edgeio.OpenFileSource(path)
	if err != nil {
		return nil, nil, false
	}
	shards := src.FileShards(par.Clamp(workers))
	defer func() {
		for _, sh := range shards {
			sh.Close()
		}
	}()
	// off[i] is where shard i's region starts; off[len(shards)] is the
	// bound on the file's lines.
	off := make([]int, len(shards)+1)
	maxID := make([]int32, len(shards))
	regions = make([][]Edge, len(shards))
	var failed atomic.Bool
	pool := par.Acquire(workers)
	defer pool.Release()
	pool.RunTasks(len(shards), func(i int) {
		n, err := shards[i].LineBound()
		if err != nil {
			failed.Store(true)
		}
		off[i+1] = n
	})
	if failed.Load() {
		return nil, nil, false
	}
	for i := range shards {
		off[i+1] += off[i]
	}
	edges := make([]Edge, off[len(shards)])
	pool.RunTasks(len(shards), func(i int) {
		var n int
		var ok bool
		n, maxID[i], ok = scanCanonicalShard(shards[i], weighted, edges[off[i]:off[i+1]], &failed)
		if !ok {
			failed.Store(true)
		}
		regions[i] = edges[off[i] : off[i]+n]
	})
	if failed.Load() {
		return nil, nil, false
	}
	top := int32(-1)
	for _, id := range maxID {
		top = max(top, id)
	}
	return &LabelMap{ids: relabelRegions(pool, int(top)+1, regions)}, regions, true
}

// scanCanonicalShard parses one shard's lines into out, returning the
// edge count and the largest label seen (-1 for none). ok is false on
// the first line ParseCanonicalLine rejects, on a read error, once
// another shard has failed, or if the lines outnumber out (the file
// grew since it was sized).
func scanCanonicalShard(sh *edgeio.FileShard, weighted bool, out []Edge, failed *atomic.Bool) (n int, maxID int32, ok bool) {
	if err := sh.Reset(); err != nil {
		return 0, 0, false
	}
	maxID = -1
	for !failed.Load() {
		line, _, err := sh.NextLineBytes()
		if err == io.EOF {
			return n, maxID, true
		}
		if err != nil {
			return 0, 0, false
		}
		u, v, w, skip, ok := edgeio.ParseCanonicalLine(line, weighted)
		if !ok || n == len(out) {
			return 0, 0, false
		}
		if skip {
			continue
		}
		out[n] = Edge{U: u, V: v, Weight: w}
		n++
		maxID = max(maxID, u, v)
	}
	return 0, 0, false
}

// scanFileSharded is the string path: it tokenizes the file's edge
// lines across workers, returning the per-shard raw edges in shard
// (= file) order. The loaders call it only after scanCanonical gave up
// on the file, so it sees every line again, canonical or not. Any parse
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
// scan sharded across workers. Canonical integer labels take the
// integer remap; any other file interns label strings (and the
// sequential ReadUndirected is the fallback on any parse error, so
// error reporting keeps its line numbers). Output is bit-identical to
// ReadUndirected on the same bytes for every worker count.
func ReadUndirectedFile(path string, weighted bool, workers int) (*Undirected, *LabelMap, error) {
	if isBin, err := edgeio.DetectBinary(path); err == nil && isBin {
		return readUndirectedBinary(path, weighted, workers)
	}
	lm, regions, ok := scanCanonical(path, weighted, workers)
	if !ok {
		sharded, err := scanFileSharded(path, weighted, workers)
		if err != nil {
			return readUndirectedSeq(path, weighted)
		}
		lm, regions = internShards(sharded)
	}
	g, err := newUndirected(lm.Len(), regions, weighted)
	if err != nil {
		return nil, nil, err
	}
	return g, lm, nil
}

// ReadDirectedFile is ReadUndirectedFile for directed edge lists.
func ReadDirectedFile(path string, workers int) (*Directed, *LabelMap, error) {
	if isBin, err := edgeio.DetectBinary(path); err == nil && isBin {
		return readDirectedBinary(path, workers)
	}
	lm, regions, ok := scanCanonical(path, false, workers)
	if !ok {
		sharded, err := scanFileSharded(path, false, workers)
		if err != nil {
			return readDirectedSeq(path)
		}
		lm, regions = internShards(sharded)
	}
	g, err := newDirected(lm.Len(), regions)
	if err != nil {
		return nil, nil, err
	}
	return g, lm, nil
}

// internShards interns the shards' labels in file order straight into
// one edge buffer, cut into segments for csrRows. The scan has already
// checked every edge: distinct labels never intern to the same id, and
// weights are positive and finite.
func internShards(sharded [][]rawEdge) (*LabelMap, [][]Edge) {
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
	return lm, segments(edges)
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
