// Package edgeio is the out-of-core edge I/O layer: one sharded
// EdgeSource abstraction serving memory-resident edges, byte-range
// shards of edge-list files on disk, and binary spill files written by
// the MapReduce engine — so the peeling runtimes can scan edge sets
// that never fit in one machine's memory through a single interface.
//
// The layer has an unweighted and a weighted lane (Reader and
// WeightedReader); every implementation is re-scannable (Reset begins a
// new pass) and every sharding is a function of the data alone — byte
// ranges depend only on the file size and the shard count, slice ranges
// only on the edge count — so shard-parallel scans feed deterministic
// merges no matter how many workers drive them.
//
// File sharding uses line-boundary resync: shard i covers the byte
// range [lo, hi) of the file and owns exactly the lines whose first
// byte lands in (lo, hi] (the first shard also owns the line at offset
// 0). A shard that starts mid-line skips forward to the next line
// start; a shard whose last line crosses hi reads it to completion.
// Every line is therefore parsed by exactly one shard, for any shard
// count, with CRLF line endings and a missing trailing newline handled
// the same way the sequential parsers handle them.
package edgeio

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Edge is one unweighted edge over dense int32 node ids.
type Edge struct {
	U, V int32
}

// WeightedEdge is one weighted edge; Weight is finite and > 0.
type WeightedEdge struct {
	U, V   int32
	Weight float64
}

// Reader is one shard's sequential cursor over unweighted edges. A
// full scan of a shard is Reset, then Next until io.EOF; Reset may be
// called again for another pass.
type Reader interface {
	Reset() error
	Next() (Edge, error)
}

// WeightedReader is the weighted lane of Reader.
type WeightedReader interface {
	Reset() error
	Next() (WeightedEdge, error)
}

// Source is a shardable, re-scannable collection of unweighted edges:
// Shards(k) returns between 1 and k readers that together yield exactly
// the edges of one full scan, each safe to drive from its own
// goroutine. The decomposition depends only on the data and k.
type Source interface {
	Shards(k int) []Reader
}

// WeightedSource is the weighted lane of Source.
type WeightedSource interface {
	WeightedShards(k int) []WeightedReader
}

// parseEdgeLine parses one raw text line of the "u v" edge-list format.
// skip is true for lines that carry no edge: blank lines, '#'/'%'
// comments, and self loops (ignored by the density model, as in every
// parser of this repository). The line may end in '\r' (CRLF input);
// TrimSpace removes it.
func parseEdgeLine(text string) (e Edge, skip bool, err error) {
	text = strings.TrimSpace(text)
	if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
		return Edge{}, true, nil
	}
	fields := strings.Fields(text)
	if len(fields) < 2 {
		return Edge{}, false, fmt.Errorf("want at least 2 fields, got %d", len(fields))
	}
	u, uerr := strconv.ParseInt(fields[0], 10, 32)
	v, verr := strconv.ParseInt(fields[1], 10, 32)
	if uerr != nil || verr != nil || u < 0 || v < 0 {
		return Edge{}, false, fmt.Errorf("bad node ids %q %q", fields[0], fields[1])
	}
	if u == v {
		return Edge{}, true, nil
	}
	return Edge{U: int32(u), V: int32(v)}, false, nil
}

// parseWeightedEdgeLine parses one raw text line of the "u v [w]"
// format; a missing third column defaults to weight 1.
func parseWeightedEdgeLine(text string) (e WeightedEdge, skip bool, err error) {
	text = strings.TrimSpace(text)
	if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
		return WeightedEdge{}, true, nil
	}
	fields := strings.Fields(text)
	if len(fields) < 2 {
		return WeightedEdge{}, false, fmt.Errorf("want at least 2 fields, got %d", len(fields))
	}
	u, uerr := strconv.ParseInt(fields[0], 10, 32)
	v, verr := strconv.ParseInt(fields[1], 10, 32)
	if uerr != nil || verr != nil || u < 0 || v < 0 {
		return WeightedEdge{}, false, fmt.Errorf("bad node ids %q %q", fields[0], fields[1])
	}
	w := 1.0
	if len(fields) >= 3 {
		var werr error
		w, werr = strconv.ParseFloat(fields[2], 64)
		if werr != nil || w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return WeightedEdge{}, false, fmt.Errorf("bad weight %q", fields[2])
		}
	}
	if u == v {
		return WeightedEdge{}, true, nil
	}
	return WeightedEdge{U: int32(u), V: int32(v), Weight: w}, false, nil
}

// isASCIISpace reports whether c is one of the ASCII whitespace bytes
// strings.Fields splits on. Lines containing any other separator (or
// non-UTF-8 bytes) take the string fallback below, which reproduces the
// Fields semantics exactly.
func isASCIISpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

// skipASCIISpace returns the first index >= i of a non-space byte.
func skipASCIISpace(b []byte, i int) int {
	for i < len(b) && isASCIISpace(b[i]) {
		i++
	}
	return i
}

// parseNodeID parses a run of decimal digits starting at i, bounded to
// int32. ok is false (triggering the string fallback) on an empty run,
// overflow, or a leading sign — the slow path accepts "+5" and rejects
// negatives with the canonical error text. With canonical set, a run
// with a leading zero ("007") is refused too: the accepted runs are
// then exactly strconv.Itoa of their value.
func parseNodeID(b []byte, i int, canonical bool) (id int32, end int, ok bool) {
	start := i
	var n int64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		n = n*10 + int64(b[i]-'0')
		if n > math.MaxInt32 {
			return 0, i, false
		}
		i++
	}
	if i == start || (canonical && b[start] == '0' && i-start > 1) {
		return 0, i, false
	}
	return int32(n), i, true
}

// scanEdgeFields is the allocation-free tokenizer behind the byte-slice
// parsers. skip is true for blank and '#'/'%' comment lines. For an
// edge line it returns the two leading ids and the third field (nil
// when absent; later fields are ignored, as strings.Fields-based
// parsing ignores them). ok is false for any line it cannot read
// exactly as strings.Fields would — a missing field, a sign, overflow,
// a non-ASCII separator — and, with canonical, for a leading zero.
func scanEdgeFields(b []byte, canonical bool) (u, v int32, third []byte, skip, ok bool) {
	i := skipASCIISpace(b, 0)
	if i == len(b) || b[i] == '#' || b[i] == '%' {
		return 0, 0, nil, true, true
	}
	if u, i, ok = parseNodeID(b, i, canonical); !ok {
		return 0, 0, nil, false, false
	}
	j := skipASCIISpace(b, i)
	if j == i || j == len(b) {
		// No separator after the first field, or only one field.
		return 0, 0, nil, false, false
	}
	if v, j, ok = parseNodeID(b, j, canonical); !ok || (j < len(b) && !isASCIISpace(b[j])) {
		return 0, 0, nil, false, false
	}
	if k := skipASCIISpace(b, j); k < len(b) {
		end := k
		for end < len(b) && !isASCIISpace(b[end]) {
			end++
		}
		third = b[k:end]
	}
	return u, v, third, false, true
}

// parseWeight parses a weight field. Its string argument does not
// escape strconv.ParseFloat, so the conversion stays off the heap for
// ordinary weight tokens.
func parseWeight(field []byte) (float64, bool) {
	w, err := strconv.ParseFloat(string(field), 64)
	return w, err == nil && w > 0 && !math.IsInf(w, 0)
}

// ParseCanonicalLine parses one raw text line of the "u v [w]" format
// for the label-preserving graph loaders, without allocating. ok is
// true only when the line reads the same as under the strings.Fields
// parsing those loaders fall back to: a blank or '#'/'%' comment line
// (skip), or two canonical integer labels separated by ASCII spaces
// and, when weighted, an optional third column that parses as a
// positive finite float (w is 1 otherwise). Self loops set skip. Any
// other line — a non-canonical label such as "007", "+5" or "n3", a
// label past MaxInt32, a non-ASCII separator, a bad weight or a
// malformed line — returns ok false and is the caller's cue to parse
// the input as strings.
func ParseCanonicalLine(b []byte, weighted bool) (u, v int32, w float64, skip, ok bool) {
	u, v, third, skip, ok := scanEdgeFields(b, true)
	if !ok || skip {
		return 0, 0, 0, skip, ok
	}
	w = 1
	if weighted && third != nil {
		if w, ok = parseWeight(third); !ok {
			return 0, 0, 0, false, false
		}
	}
	return u, v, w, u == v, true
}

// parseEdgeLineBytes is parseEdgeLine over a byte slice: the hot path
// of the text file shards. The fast path handles the common
// "digits space digits" shape without allocating; anything unusual —
// signs, overflow, malformed fields, exotic whitespace — falls back to
// the string parser so semantics and error text stay identical.
func parseEdgeLineBytes(b []byte) (e Edge, skip bool, err error) {
	u, v, _, skip, ok := scanEdgeFields(b, false)
	if !ok {
		return parseEdgeLine(string(b))
	}
	if skip || u == v {
		return Edge{}, true, nil
	}
	return Edge{U: u, V: v}, false, nil
}

// parseWeightedEdgeLineBytes is parseWeightedEdgeLine over a byte
// slice; the weight still goes through strconv.ParseFloat for exact
// parsing semantics.
func parseWeightedEdgeLineBytes(b []byte) (e WeightedEdge, skip bool, err error) {
	u, v, third, skip, ok := scanEdgeFields(b, false)
	if !ok {
		return parseWeightedEdgeLine(string(b))
	}
	if skip {
		return WeightedEdge{}, true, nil
	}
	w := 1.0
	if third != nil {
		if w, ok = parseWeight(third); !ok {
			// Reproduce the canonical error text (or, for weird inputs
			// ParseFloat accepts differently, the canonical verdict).
			return parseWeightedEdgeLine(string(b))
		}
	}
	if u == v {
		return WeightedEdge{}, true, nil
	}
	return WeightedEdge{U: u, V: v, Weight: w}, false, nil
}

// MaxNodeID scans r fully and reports the maximum node id seen (-1 for
// an empty source) — the node-count discovery pass of the file-backed
// streams, which assume dense ids 0..max.
func MaxNodeID(r Reader) (int32, error) {
	maxID := int32(-1)
	if err := r.Reset(); err != nil {
		return -1, err
	}
	for {
		e, err := r.Next()
		if err == io.EOF {
			return maxID, nil
		}
		if err != nil {
			return -1, err
		}
		if e.U > maxID {
			maxID = e.U
		}
		if e.V > maxID {
			maxID = e.V
		}
	}
}

// MaxNodeIDWeighted is MaxNodeID for the weighted lane.
func MaxNodeIDWeighted(r WeightedReader) (int32, error) {
	maxID := int32(-1)
	if err := r.Reset(); err != nil {
		return -1, err
	}
	for {
		e, err := r.Next()
		if err == io.EOF {
			return maxID, nil
		}
		if err != nil {
			return -1, err
		}
		if e.U > maxID {
			maxID = e.U
		}
		if e.V > maxID {
			maxID = e.V
		}
	}
}
