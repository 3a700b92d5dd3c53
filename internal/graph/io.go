package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Edge-list text format, compatible with SNAP dumps:
//
//	# comment
//	<src> <dst> [weight]
//
// Node labels are arbitrary non-negative integers or strings; they are
// remapped to dense ids in first-seen order. Lines may be separated by
// spaces or tabs.

// LabelMap records the mapping between external node labels and the dense
// internal ids produced by the parsers. A map from a text load whose
// labels are all canonical integers ("0" or digits without a leading
// zero, at most MaxInt32), and a map from a BSG1 load, hold only the
// integer ids: Label formats an id when called, and the first Lookup or
// ID builds the string index (so, like ID, that first Lookup must not
// run concurrently with other calls). A map from any other text load
// holds the interned label strings.
type LabelMap struct {
	toID   map[string]int32 // nil until first needed for a BSG1 map
	labels []string
	ids    []int32 // BSG1 maps before the string index is built
}

// NewLabelMap returns an empty label map.
func NewLabelMap() *LabelMap {
	return &LabelMap{toID: make(map[string]int32)}
}

// index builds the string index of a BSG1 map, rendering every id once.
func (lm *LabelMap) index() {
	if lm.toID != nil {
		return
	}
	lm.toID = make(map[string]int32, len(lm.ids))
	lm.labels = make([]string, len(lm.ids))
	for i, id := range lm.ids {
		lm.labels[i] = strconv.Itoa(int(id))
		lm.toID[lm.labels[i]] = int32(i)
	}
	lm.ids = nil
}

// ID interns label and returns its dense id.
func (lm *LabelMap) ID(label string) int32 {
	lm.index()
	if id, ok := lm.toID[label]; ok {
		return id
	}
	id := int32(len(lm.labels))
	lm.toID[label] = id
	lm.labels = append(lm.labels, label)
	return id
}

// Lookup returns the id of label without interning it.
func (lm *LabelMap) Lookup(label string) (int32, bool) {
	lm.index()
	id, ok := lm.toID[label]
	return id, ok
}

// Label returns the external label of dense id.
func (lm *LabelMap) Label(id int32) string {
	if lm.toID == nil {
		return strconv.Itoa(int(lm.ids[id]))
	}
	return lm.labels[id]
}

// Len returns the number of labels.
func (lm *LabelMap) Len() int { return len(lm.labels) + len(lm.ids) }

// ParseError describes a malformed line in an edge-list input.
type ParseError struct {
	Line int
	Text string
	Err  error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("graph: line %d %q: %v", e.Line, e.Text, e.Err)
}

func (e *ParseError) Unwrap() error { return e.Err }

// scanEdges parses the text edge-list format into one edge per edge
// line. Self loops are skipped (with no error) because real SNAP dumps
// contain them and the densest-subgraph model ignores them.
func scanEdges(r io.Reader, weighted bool) (*LabelMap, []Edge, error) {
	lm := NewLabelMap()
	var edges []Edge
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, &ParseError{Line: lineNo, Text: line, Err: fmt.Errorf("want at least 2 fields, got %d", len(fields))}
		}
		w := 1.0
		if weighted && len(fields) >= 3 {
			var err error
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, nil, &ParseError{Line: lineNo, Text: line, Err: fmt.Errorf("bad weight: %v", err)}
			}
			if !(w > 0) || math.IsInf(w, 0) {
				return nil, nil, &ParseError{Line: lineNo, Text: line, Err: ErrBadWeight}
			}
		}
		if fields[0] == fields[1] {
			continue // self loop: ignored by the density model
		}
		edges = append(edges, Edge{U: lm.ID(fields[0]), V: lm.ID(fields[1]), Weight: w})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return lm, edges, nil
}

// ReadUndirected parses an undirected edge list. If weighted is true a
// third column is interpreted as the edge weight.
func ReadUndirected(r io.Reader, weighted bool) (*Undirected, *LabelMap, error) {
	lm, edges, err := scanEdges(r, weighted)
	if err != nil {
		return nil, nil, err
	}
	g, err := (&Builder{n: lm.Len(), edges: edges, weighted: weighted}).Freeze()
	if err != nil {
		return nil, nil, err
	}
	return g, lm, nil
}

// ReadDirected parses a directed edge list (src dst per line).
func ReadDirected(r io.Reader) (*Directed, *LabelMap, error) {
	lm, edges, err := scanEdges(r, false)
	if err != nil {
		return nil, nil, err
	}
	g, err := (&DirectedBuilder{n: lm.Len(), edges: edges}).Freeze()
	if err != nil {
		return nil, nil, err
	}
	return g, lm, nil
}

// WriteUndirected emits the graph in the text edge-list format (one "u v"
// or "u v w" line per edge, u < v) using dense ids as labels. Weights are
// written in the shortest form that parses back to the same float64, as
// fmt's %g does.
func WriteUndirected(w io.Writer, g *Undirected) error {
	bw := bufio.NewWriter(w)
	var line []byte
	var werr error
	g.Edges(func(u, v int32, wt float64) bool {
		line = appendEdgePair(line[:0], u, v)
		if g.Weighted() {
			line = strconv.AppendFloat(append(line, '\t'), wt, 'g', -1, 64)
		}
		line = append(line, '\n')
		_, werr = bw.Write(line)
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// WriteDirected emits the directed graph in the text edge-list format.
func WriteDirected(w io.Writer, g *Directed) error {
	bw := bufio.NewWriter(w)
	var line []byte
	var werr error
	g.Edges(func(u, v int32) bool {
		line = append(appendEdgePair(line[:0], u, v), '\n')
		_, werr = bw.Write(line)
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// appendEdgePair appends "u\tv", the start of an edge line, to b.
func appendEdgePair(b []byte, u, v int32) []byte {
	b = strconv.AppendInt(b, int64(u), 10)
	return strconv.AppendInt(append(b, '\t'), int64(v), 10)
}
