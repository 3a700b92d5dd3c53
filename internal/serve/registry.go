package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	ds "densestream"
	"densestream/internal/edgeio"
	"densestream/internal/graph"
)

// maxNodes is the node ceiling of every registered graph: a node count
// or node id that would size a graph past it is rejected before
// anything is allocated for it.
const maxNodes = 1 << 26

// Edge is one registered edge. Registered graphs use dense integer node
// ids (like the file-stream inputs); W is 1 for unweighted graphs.
type Edge struct {
	U, V int32
	W    float64
}

// GraphInfo describes one registered graph; it is the JSON shape the
// /graphs endpoints return.
type GraphInfo struct {
	Name     string `json:"name"`
	Directed bool   `json:"directed"`
	Weighted bool   `json:"weighted"`
	// Nodes and Edges count the registered input (edges as given,
	// before parallel-edge merging); appends add to both. Nodes is at
	// most 2^26.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Fingerprint identifies a registration plus its sequence of
	// appends and deletes, not an edge multiset: two graphs with the
	// same fingerprint produce bit-identical Solutions for the same
	// Problem, which is what keys cached results. A registration hashes
	// its shape and edges (so a text file and its binary conversion
	// match); every append or delete then hashes the previous
	// fingerprint with the batch, a hash chain that never returns to an
	// earlier value when a batch is undone.
	Fingerprint string `json:"fingerprint"`
	// Version counts registrations and appends under this name.
	Version int64 `json:"version"`
	// Dynamic marks a graph backed by an incremental Maintainer:
	// POST /graphs/{name}/edges feeds it in place and matching solve
	// requests are served from the maintained solution instead of
	// recomputing cold. Eps is the maintainer's peeling slack and
	// Window its sliding-window width (0 = no expiry).
	Dynamic bool    `json:"dynamic,omitempty"`
	Eps     float64 `json:"eps,omitempty"`
	Window  int64   `json:"window,omitempty"`
}

// Snapshot is an immutable view of a registered graph at one version:
// the frozen in-memory graph plus its identifying info. Solves hold a
// Snapshot, so a concurrent append never mutates a running solve —
// it produces the next version instead.
type Snapshot struct {
	Info GraphInfo
	// Exactly one of Graph and Directed is non-nil, per Info.Directed.
	Graph    *ds.UndirectedGraph
	Directed *ds.DirectedGraph
}

// graphEntry is the mutable registry slot behind one name.
type graphEntry struct {
	mu   sync.Mutex
	info GraphInfo
	fp   uint64 // info.Fingerprint: the last link of the hash chain

	// snap is the last snapshot built, current while its version is
	// info.Version. A static graph's next snapshot is snap's graph with
	// pending, the edges appended since, spliced in (or all of pending
	// frozen, before the first snapshot).
	snap     *Snapshot
	pending  []graph.Edge
	buildErr error // sticky build failure for the current version

	// dyn, when non-nil, is the incremental maintainer behind a dynamic
	// graph: appends feed it in place and Snapshot freezes its live
	// edge set instead of the append log.
	dyn    *ds.Maintainer
	dynCfg ds.MaintainerConfig
}

// Registry is the named-graph store of the daemon: load once, solve
// many. All methods are safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	graphs map[string]*graphEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{graphs: make(map[string]*graphEntry)}
}

// Register creates or replaces the graph under name. Edges use dense
// integer ids; nodes may exceed the largest id to declare isolated
// trailing nodes (0 sizes it from the edges).
func (r *Registry) Register(name string, directed, weighted bool, edges []Edge, nodes int) (GraphInfo, error) {
	if name == "" {
		return GraphInfo{}, fmt.Errorf("serve: graph name must not be empty")
	}
	if directed && weighted {
		return GraphInfo{}, fmt.Errorf("serve: directed graphs do not support weights")
	}
	if err := checkEdges(edges, weighted); err != nil {
		return GraphInfo{}, err
	}
	n, err := nodeCount(edges, nodes)
	if err != nil {
		return GraphInfo{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.graphs[name]
	version := int64(1)
	if prev != nil {
		prev.mu.Lock()
		version = prev.info.Version + 1
		prev.mu.Unlock()
	}
	e := &graphEntry{
		info:    GraphInfo{Name: name, Directed: directed, Weighted: weighted, Nodes: n, Edges: len(edges), Version: version},
		pending: appendGraphEdges(nil, edges),
	}
	e.setFingerprint(fingerprint(e.info, edges))
	r.graphs[name] = e
	return e.info, nil
}

// Append adds edges to an existing graph, bumping its version and
// chaining its fingerprint (which unkeys every cached result for the
// old content). New node ids extend the graph. The cost is O(batch):
// the batch is checked, hashed and queued for the next Snapshot. On a
// dynamic graph the edges feed the maintainer in place (the node
// universe is fixed at registration).
func (r *Registry) Append(name string, edges []Edge) (GraphInfo, error) {
	e, err := r.entry(name)
	if err != nil {
		return GraphInfo{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dyn != nil {
		return e.feedDynamicLocked(edges, opAppend)
	}
	if err := checkEdges(edges, e.info.Weighted); err != nil {
		return GraphInfo{}, err
	}
	n, err := nodeCount(edges, e.info.Nodes)
	if err != nil {
		return GraphInfo{}, err
	}
	e.pending = appendGraphEdges(e.pending, edges)
	e.info.Nodes = n
	e.info.Edges += len(edges)
	return e.bumpLocked(opAppend, edges), nil
}

// RegisterDynamic creates or replaces name as a dynamic graph: a
// maintainer over the fixed node universe [0, cfg.NumNodes) seeded with
// the given edges. On a windowed maintainer (cfg.Window > 0) each
// edge's W column is its integer timestamp and the watermark advances
// with the feed; otherwise W is ignored.
func (r *Registry) RegisterDynamic(name string, cfg ds.MaintainerConfig, edges []Edge) (GraphInfo, error) {
	if name == "" {
		return GraphInfo{}, fmt.Errorf("serve: graph name must not be empty")
	}
	n, err := nodeCount(edges, max(cfg.NumNodes, 1))
	if err != nil {
		return GraphInfo{}, err
	}
	cfg.NumNodes = n
	m, err := ds.NewMaintainer(cfg)
	if err != nil {
		return GraphInfo{}, err
	}
	if _, err := feedMaintainer(m, cfg, edges, false); err != nil {
		return GraphInfo{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.graphs[name]
	version := int64(1)
	if prev != nil {
		prev.mu.Lock()
		version = prev.info.Version + 1
		prev.mu.Unlock()
	}
	e := &graphEntry{
		info: GraphInfo{
			Name: name, Nodes: cfg.NumNodes, Version: version,
			Dynamic: true, Eps: cfg.Eps, Window: cfg.Window,
		},
		dyn: m, dynCfg: cfg,
	}
	e.info.Edges = int(m.Stats().LiveEdges)
	e.setFingerprint(fingerprint(e.info, edges))
	r.graphs[name] = e
	return e.info, nil
}

// DeleteEdges removes one instance of each given edge from a dynamic
// graph (static graphs do not support deletion).
func (r *Registry) DeleteEdges(name string, edges []Edge) (GraphInfo, error) {
	e, err := r.entry(name)
	if err != nil {
		return GraphInfo{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dyn == nil {
		return GraphInfo{}, fmt.Errorf("serve: graph %q is not dynamic; deletes need a graph registered with dynamic=true", name)
	}
	return e.feedDynamicLocked(edges, opDelete)
}

// feedDynamicLocked applies one update batch to a dynamic entry's
// maintainer and bumps the descriptor. A batch that fails part way
// still bumps it for the prefix that was applied, since that prefix
// changed the live edges.
func (e *graphEntry) feedDynamicLocked(batch []Edge, op byte) (GraphInfo, error) {
	applied, err := feedMaintainer(e.dyn, e.dynCfg, batch, op == opDelete)
	if applied > 0 || err == nil {
		e.info.Edges = int(e.dyn.Stats().LiveEdges)
		e.bumpLocked(op, batch[:applied])
	}
	if err != nil {
		return GraphInfo{}, err
	}
	return e.info, nil
}

// Fingerprint chain operations.
const (
	opAppend = 'a'
	opDelete = 'd'
)

// bumpLocked moves the entry to its next version after an update batch:
// the fingerprint becomes the hash of the previous one, op, the shape
// and the batch.
func (e *graphEntry) bumpLocked(op byte, batch []Edge) GraphInfo {
	e.info.Version++
	h := fnv.New64a()
	var buf [9]byte
	binary.LittleEndian.PutUint64(buf[:], e.fp)
	buf[8] = op
	h.Write(buf[:])
	hashLink(h, e.info, batch)
	e.setFingerprint(h.Sum64())
	e.buildErr = nil
	return e.info
}

func (e *graphEntry) setFingerprint(fp uint64) {
	e.fp = fp
	e.info.Fingerprint = fmt.Sprintf("%016x", fp)
}

// feedMaintainer applies one update batch and reports how many of its
// edges it applied. Windowed maintainers read each edge's W column as
// its integer timestamp and advance the watermark along the way
// (expiring old buckets in batches).
func feedMaintainer(m *ds.Maintainer, cfg ds.MaintainerConfig, edges []Edge, del bool) (int, error) {
	for i, e := range edges {
		if del {
			if err := m.Delete(e.U, e.V); err != nil {
				return i, fmt.Errorf("serve: edge %d: %w", i, err)
			}
			continue
		}
		if cfg.Window > 0 {
			ts := int64(e.W)
			if float64(ts) != e.W || ts < 1 {
				return i, fmt.Errorf("serve: edge %d (%d,%d): windowed dynamic graphs need a positive integer timestamp in the weight column, got %v", i, e.U, e.V, e.W)
			}
			if err := m.InsertAt(e.U, e.V, ts); err != nil {
				return i, fmt.Errorf("serve: edge %d: %w", i, err)
			}
			if err := m.Advance(ts); err != nil {
				return i + 1, err
			}
			continue
		}
		if err := m.Insert(e.U, e.V); err != nil {
			return i, fmt.Errorf("serve: edge %d: %w", i, err)
		}
	}
	return len(edges), nil
}

// DynamicConfig returns the maintainer configuration of a dynamic
// graph, reporting ok=false for static (or unknown) names.
func (r *Registry) DynamicConfig(name string) (ds.MaintainerConfig, bool) {
	e, err := r.entry(name)
	if err != nil {
		return ds.MaintainerConfig{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dyn == nil {
		return ds.MaintainerConfig{}, false
	}
	return e.dynCfg, true
}

// DynamicCurrent returns the maintained solution of a dynamic graph,
// re-peeling lazily only if the drift trigger has fired since the last
// epoch.
func (r *Registry) DynamicCurrent(name string) (*ds.Solution, error) {
	e, err := r.entry(name)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	m := e.dyn
	e.mu.Unlock()
	if m == nil {
		return nil, fmt.Errorf("serve: graph %q is not dynamic", name)
	}
	// The maintainer has its own lock; a long re-peel must not hold the
	// entry lock against concurrent appends' descriptor updates.
	return m.Current()
}

// DynamicStats aggregates every dynamic graph's maintainer counters
// for /metrics.
func (r *Registry) DynamicStats() (graphs int, agg ds.MaintainerStats) {
	r.mu.RLock()
	entries := make([]*graphEntry, 0, len(r.graphs))
	for _, e := range r.graphs {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	for _, e := range entries {
		e.mu.Lock()
		m := e.dyn
		e.mu.Unlock()
		if m == nil {
			continue
		}
		s := m.Stats()
		graphs++
		agg.Updates += s.Updates
		agg.Inserts += s.Inserts
		agg.Deletes += s.Deletes
		agg.Expired += s.Expired
		agg.Epochs += s.Epochs
		agg.DriftTriggers += s.DriftTriggers
		agg.LiveEdges += s.LiveEdges
		agg.WindowEdges += s.WindowEdges
	}
	return graphs, agg
}

// Snapshot returns the frozen graph for name at its current version,
// building (and memoizing) it on first use after a registration or
// append. Concurrent snapshots of the same version share one build. A
// static graph's build splices the edges appended since the previous
// snapshot into a copy of its CSR (graph.AppendUndirected), bit for bit
// the graph a Freeze of the whole edge log builds; the previous
// snapshot, which running solves may hold, is never modified.
func (r *Registry) Snapshot(name string) (*Snapshot, error) {
	e, err := r.entry(name)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.buildErr != nil {
		return nil, e.buildErr
	}
	if e.snap != nil && e.snap.Info.Version == e.info.Version {
		return e.snap, nil
	}
	prev := e.snap
	if prev == nil {
		prev = &Snapshot{}
	}
	snap := &Snapshot{Info: e.info}
	switch {
	case e.dyn != nil:
		// A dynamic graph's snapshot is its live edge set — what a
		// from-scratch solve at this version would see.
		b := ds.NewBuilder(e.info.Nodes)
		for _, ed := range e.dyn.Edges() {
			if err = b.AddEdge(ed.U, ed.V); err != nil {
				break
			}
		}
		if err == nil {
			snap.Graph, err = b.Freeze()
		}
	case e.info.Directed:
		snap.Directed, err = graph.AppendDirected(prev.Directed, e.pending, e.info.Nodes)
	default:
		snap.Graph, err = graph.AppendUndirected(prev.Graph, e.pending, e.info.Nodes, e.info.Weighted)
	}
	if err != nil {
		e.buildErr = fmt.Errorf("serve: building graph %q: %w", name, err)
		return nil, e.buildErr
	}
	e.snap, e.pending = snap, nil
	return snap, nil
}

// Info returns the descriptor of one graph.
func (r *Registry) Info(name string) (GraphInfo, error) {
	e, err := r.entry(name)
	if err != nil {
		return GraphInfo{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.info, nil
}

// List returns every registered graph's descriptor, sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.RLock()
	entries := make([]*graphEntry, 0, len(r.graphs))
	for _, e := range r.graphs {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	infos := make([]GraphInfo, 0, len(entries))
	for _, e := range entries {
		e.mu.Lock()
		infos = append(infos, e.info)
		e.mu.Unlock()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Delete removes a graph; running solves keep their snapshots.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[name]; !ok {
		return fmt.Errorf("serve: graph %q is not registered", name)
	}
	delete(r.graphs, name)
	return nil
}

// Len reports the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.graphs)
}

func (r *Registry) entry(name string) (*graphEntry, error) {
	r.mu.RLock()
	e := r.graphs[name]
	r.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("serve: graph %q is not registered", name)
	}
	return e, nil
}

// checkEdges validates ids, weights, and self loops up front so errors
// carry an edge index instead of surfacing later from the builder.
func checkEdges(edges []Edge, weighted bool) error {
	for i, e := range edges {
		if e.U < 0 || e.V < 0 {
			return fmt.Errorf("serve: edge %d (%d,%d): node ids must be >= 0", i, e.U, e.V)
		}
		if e.U == e.V {
			return fmt.Errorf("serve: edge %d: self loop at node %d", i, e.U)
		}
		if weighted && (!(e.W > 0) || math.IsInf(e.W, 0)) {
			return fmt.Errorf("serve: edge %d (%d,%d): weight must be a finite value > 0, got %v", i, e.U, e.V, e.W)
		}
	}
	return nil
}

func maxNode(edges []Edge) int32 {
	var n int32 = -1
	for _, e := range edges {
		if e.U > n {
			n = e.U
		}
		if e.V > n {
			n = e.V
		}
	}
	return n
}

// nodeCount is the node universe of edges, one past their largest id,
// raised to atLeast; universes above maxNodes are an error.
func nodeCount(edges []Edge, atLeast int) (int, error) {
	n := max(int(maxNode(edges))+1, atLeast)
	if n > maxNodes {
		return 0, fmt.Errorf("serve: %d nodes exceed the ceiling of %d", n, maxNodes)
	}
	return n, nil
}

// appendGraphEdges appends edges to dst in the graph package's form.
func appendGraphEdges(dst []graph.Edge, edges []Edge) []graph.Edge {
	dst = slices.Grow(dst, len(edges))
	for _, e := range edges {
		dst = append(dst, graph.Edge{U: e.U, V: e.V, Weight: e.W})
	}
	return dst
}

// fingerprint hashes a registration — shape flags, node count and the
// exact edge sequence — into the first link of the fingerprint chain.
// FNV-1a over the fixed-width encoding: stable across processes and
// platforms.
func fingerprint(info GraphInfo, edges []Edge) uint64 {
	h := fnv.New64a()
	hashLink(h, info, edges)
	return h.Sum64()
}

// hashLink writes the shape flags, the node count and the edges to h.
// The W column is hashed where it carries content: weights, or the
// timestamps of a windowed dynamic graph.
func hashLink(h hash.Hash64, info GraphInfo, edges []Edge) {
	var buf [8]byte
	flags := byte(0)
	if info.Directed {
		flags |= 1
	}
	if info.Weighted {
		flags |= 2
	}
	h.Write([]byte{flags})
	binary.LittleEndian.PutUint64(buf[:], uint64(info.Nodes))
	h.Write(buf[:])
	withW := info.Weighted || info.Window > 0
	for _, e := range edges {
		binary.LittleEndian.PutUint32(buf[:4], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
		h.Write(buf[:])
		if withW {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e.W))
			h.Write(buf[:])
		}
	}
}

// ParseEdgeList reads a SNAP-style edge list — "u v" or "u v w" per
// line, '#'/'%' comments, blank lines ignored — into registry edges.
// Node ids must be dense non-negative integers (the same contract as
// the file-stream inputs). Errors carry the 1-based line number.
func ParseEdgeList(r io.Reader, weighted bool) ([]Edge, error) {
	var edges []Edge
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("serve: line %d: need at least two fields, got %q", line, text)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("serve: line %d: bad node id %q", line, fields[0])
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("serve: line %d: bad node id %q", line, fields[1])
		}
		w := 1.0
		if weighted && len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("serve: line %d: bad weight %q", line, fields[2])
			}
		}
		edges = append(edges, Edge{U: int32(u), V: int32(v), W: w})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: reading edge list: %w", err)
	}
	return edges, nil
}

// ReadEdgeListFile reads a graph file into registry edges, sniffing
// the format from the magic bytes: binary columnar files decode
// directly, anything else parses as a text edge list. Both routes
// yield the same edges for the same graph, so a text file and its
// binary conversion register with identical fingerprints.
func ReadEdgeListFile(path string, weighted bool) ([]Edge, error) {
	isBin, err := edgeio.DetectBinary(path)
	if err != nil {
		return nil, fmt.Errorf("serve: opening %s: %w", path, err)
	}
	if !isBin {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("serve: opening %s: %w", path, err)
		}
		defer f.Close()
		return ParseEdgeList(f, weighted)
	}
	src, err := edgeio.OpenBinarySource(path)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer src.Close()
	edges := make([]Edge, 0, src.NumEdges())
	r := src.WeightedShards(1)[0]
	if err := r.Reset(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		w := 1.0
		if weighted {
			w = e.Weight
		}
		edges = append(edges, Edge{U: e.U, V: e.V, W: w})
	}
	return edges, nil
}
