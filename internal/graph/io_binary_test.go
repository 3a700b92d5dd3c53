package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"densestream/internal/edgeio"
)

// writeBSG1 writes edges verbatim (self loops and repeats included) as
// a binary columnar file and returns its path.
func writeBSG1(t testing.TB, edges []Edge, weighted bool) string {
	t.Helper()
	return writeBSG1Blocks(t, edges, weighted, edgeio.DefaultBlockEdges)
}

// writeBSG1Blocks is writeBSG1 with blockEdges edges per block, so a
// small file still cuts into many shards.
func writeBSG1Blocks(t testing.TB, edges []Edge, weighted bool, blockEdges int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.bsg")
	w, err := edgeio.CreateBinary(path, weighted)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockEdges(blockEdges)
	for _, e := range edges {
		w.AppendWeighted(edgeio.WeightedEdge{U: e.U, V: e.V, Weight: e.Weight})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// setHeaderNodes overwrites the node count in a binary file's header.
func setHeaderNodes(t *testing.T, path string, nodes uint64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(data[8:16], nodes)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeText writes edges as a text edge list with the same ids.
func writeText(t *testing.T, edges []Edge, weighted bool) string {
	t.Helper()
	var sb strings.Builder
	for _, e := range edges {
		if weighted {
			fmt.Fprintf(&sb, "%d %d %v\n", e.U, e.V, e.Weight)
		} else {
			fmt.Fprintf(&sb, "%d %d\n", e.U, e.V)
		}
	}
	return writeTemp(t, sb.String())
}

// scatteredEdges is randomEdges over ids spread across [0, 7n), with a
// few self loops, so first-seen relabelling has work to do.
func scatteredEdges(n, m int, seed int64) []Edge {
	edges := randomEdges(n, m, seed)
	for i := range edges {
		edges[i].U = edges[i].U*7 + 3
		edges[i].V = edges[i].V*7 + 3
		if i%97 == 0 {
			edges[i].V = edges[i].U
		}
	}
	return edges
}

// TestBinaryLoadMatchesText checks a BSG1 file and the text edge list
// with the same ids load into identical graphs and labels, for
// undirected, weighted and directed loads.
func TestBinaryLoadMatchesText(t *testing.T) {
	edges := scatteredEdges(400, 5000, 11)
	for _, weighted := range []bool{false, true} {
		bin, txt := writeBSG1(t, edges, weighted), writeText(t, edges, weighted)
		got, glm, err := ReadUndirectedFile(bin, weighted, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, wlm, err := ReadUndirectedFile(txt, weighted, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("weighted=%v: binary graph differs from text", weighted)
		}
		checkLabelMapsAgree(t, glm, wlm)
	}
	bin, txt := writeBSG1(t, edges, false), writeText(t, edges, false)
	got, glm, err := ReadDirectedFile(bin, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, wlm, err := ReadDirectedFile(txt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("binary directed graph differs from text")
	}
	checkLabelMapsAgree(t, glm, wlm)
}

// checkLabelMapsAgree checks Label, Lookup and Len agree for every id,
// that ID returns an existing label's id, and that interning a new label
// after the load agrees too.
func checkLabelMapsAgree(t *testing.T, bin, txt *LabelMap) {
	t.Helper()
	if bin.Len() != txt.Len() {
		t.Fatalf("Len %d, text %d", bin.Len(), txt.Len())
	}
	for id := int32(0); int(id) < txt.Len(); id++ {
		if bin.Label(id) != txt.Label(id) {
			t.Fatalf("Label(%d) = %q, text %q", id, bin.Label(id), txt.Label(id))
		}
	}
	for id := int32(0); int(id) < txt.Len(); id++ {
		got, ok := bin.Lookup(txt.Label(id))
		want, wok := txt.Lookup(txt.Label(id))
		if got != want || ok != wok || got != id {
			t.Fatalf("Lookup(%q) = %d,%v, text %d,%v", txt.Label(id), got, ok, want, wok)
		}
	}
	if last := int32(txt.Len() - 1); last >= 0 && bin.ID(txt.Label(last)) != last {
		t.Fatalf("ID(%q) did not return the existing id %d", txt.Label(last), last)
	}
	if _, ok := bin.Lookup("new"); ok {
		t.Fatal(`Lookup("new") found a label never interned`)
	}
	if got, want := bin.ID("new"), txt.ID("new"); got != want || bin.Len() != txt.Len() {
		t.Fatalf(`ID("new") = %d (Len %d), text %d (Len %d)`, got, bin.Len(), want, txt.Len())
	}
	for id := int32(0); int(id) < txt.Len(); id++ {
		if bin.Label(id) != txt.Label(id) {
			t.Fatalf("after ID: Label(%d) = %q, text %q", id, bin.Label(id), txt.Label(id))
		}
	}
}

// parityEdges returns m edges over labels scattered across [0, 7n) in
// shuffled order, with self loops, repeated edges and varied weights;
// edges [quiet, quiet+span) are all self loops, so a shard covering
// only them keeps no edges.
func parityEdges(n, m, quiet, span int, seed int64) []Edge {
	edges := scatteredEdges(n, m, seed)
	for i := range edges {
		edges[i].Weight = float64(i%13+1) / 4
		if i%50 == 7 && i > 0 {
			edges[i].U, edges[i].V = edges[i-1].V, edges[i-1].U // a repeat
		}
		if i >= quiet && i < quiet+span {
			edges[i].V = edges[i].U
		}
	}
	return edges
}

// TestLoadersMatchAcrossWorkers checks the BSG1 and canonical-text
// loaders return graphs and LabelMaps equal to the workers=1 load at
// workers 2, 3 and 8: undirected, weighted and directed, on files whose
// labels need a real relabel and with shards that keep no edges.
func TestLoadersMatchAcrossWorkers(t *testing.T) {
	// At 64 edges per block and 8 workers, the shard of blocks [14, 19)
	// holds only self loops.
	edges := parityEdges(150, 2400, 14*64, 5*64, 29)
	// A run of comment lines gives the text file byte-range shards
	// without an edge line.
	comments := strings.Repeat("# no edges in this stretch of the file\n", 400)
	files := map[string]func(weighted bool) string{
		"bsg1": func(weighted bool) string { return writeBSG1Blocks(t, edges, weighted, 64) },
		"text": func(weighted bool) string {
			txt, err := os.ReadFile(writeText(t, edges, weighted))
			if err != nil {
				t.Fatal(err)
			}
			return writeTemp(t, comments+string(txt)+comments)
		},
	}
	for name, write := range files {
		for _, weighted := range []bool{false, true} {
			path := write(weighted)
			want, wlm, err := ReadUndirectedFile(path, weighted, 1)
			if err != nil {
				t.Fatal(err)
			}
			if wlm.Len() == 0 || wlm.Label(0) == "0" && wlm.Label(1) == "1" {
				t.Fatalf("%s: labels %q, %q need no relabel", name, wlm.Label(0), wlm.Label(1))
			}
			if name == "bsg1" {
				regions, _, err := readBinaryEdges(path, weighted, 8)
				if err != nil || !slices.ContainsFunc(regions, func(r []Edge) bool { return len(r) == 0 }) {
					t.Fatalf("no empty region among the 8 shards (err %v)", err)
				}
			}
			dwant, dwlm, err := ReadDirectedFile(path, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				got, glm, err := ReadUndirectedFile(path, weighted, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(glm, wlm) {
					t.Fatalf("%s weighted=%v workers=%d: undirected load differs from workers=1", name, weighted, workers)
				}
				dgot, dglm, err := ReadDirectedFile(path, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(dgot, dwant) || !reflect.DeepEqual(dglm, dwlm) {
					t.Fatalf("%s workers=%d: directed load differs from workers=1", name, workers)
				}
			}
		}
	}
}

// TestLoaderErrorsMatchAcrossWorkers checks a bad edge reports the same
// error at every worker count: a bad id or weight in the last shard,
// and, when two shards fail, the edge with the lower index.
func TestLoaderErrorsMatchAcrossWorkers(t *testing.T) {
	const m = 2400
	for _, tc := range []struct {
		name  string
		bad   map[int]Edge // edge index → replacement
		index int          // the edge the error must name
		nodes uint64       // header node count to set, if not 0
		text  bool         // also check the text file (no bad ids there)
	}{
		{"weight-last-shard", map[int]Edge{m - 5: {U: 3, V: 10, Weight: -1}}, m - 5, 0, true},
		{"negative-id-last-shard", map[int]Edge{m - 3: {U: -4, V: 10, Weight: 1}}, m - 3, 0, false},
		{"id-past-header-last-shard", map[int]Edge{m - 2: {U: 5000, V: 10, Weight: 1}}, m - 2, 7 * 150, false},
		{"two-shards", map[int]Edge{700: {U: 3, V: 10, Weight: math.NaN()}, 2000: {U: -1, V: 2, Weight: 1}}, 700, 0, true},
		{"two-shards-id-first", map[int]Edge{600: {U: -9, V: 2, Weight: 1}, 1900: {U: 3, V: 10, Weight: 0}}, 600, 0, false},
	} {
		edges := parityEdges(150, m, 0, 0, 31)
		for i, e := range tc.bad {
			edges[i] = e
		}
		bin := writeBSG1Blocks(t, edges, true, 64)
		if tc.nodes > 0 {
			setHeaderNodes(t, bin, tc.nodes)
		}
		var txt string
		if tc.text {
			txt = writeText(t, edges, true)
		}
		_, _, want := ReadUndirectedFile(bin, true, 1)
		if want == nil || !strings.Contains(want.Error(), fmt.Sprintf("edge %d ", tc.index)) {
			t.Fatalf("%s: workers=1 error %v, want one naming edge %d", tc.name, want, tc.index)
		}
		var twant error
		if txt != "" {
			_, _, twant = ReadUndirectedFile(txt, true, 1)
			if twant == nil || !strings.Contains(twant.Error(), fmt.Sprintf("line %d", tc.index+1)) {
				t.Fatalf("%s: text workers=1 error %v, want one naming line %d", tc.name, twant, tc.index+1)
			}
		}
		for _, workers := range []int{2, 3, 8} {
			if _, _, err := ReadUndirectedFile(bin, true, workers); err == nil || err.Error() != want.Error() {
				t.Fatalf("%s workers=%d: error %v, workers=1 %v", tc.name, workers, err, want)
			}
			if txt == "" {
				continue
			}
			if _, _, err := ReadUndirectedFile(txt, true, workers); err == nil || err.Error() != twant.Error() {
				t.Fatalf("%s text workers=%d: error %v, workers=1 %v", tc.name, workers, err, twant)
			}
		}
	}
}

// TestBinaryRejectsOutOfRangeIDs checks a header that undercounts the
// nodes is an ErrNodeRange error on both resident loaders.
func TestBinaryRejectsOutOfRangeIDs(t *testing.T) {
	path := writeBSG1(t, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, false)
	setHeaderNodes(t, path, 3)
	if _, _, err := ReadUndirectedFile(path, false, 1); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("undirected: want ErrNodeRange, got %v", err)
	}
	if _, _, err := ReadDirectedFile(path, 1); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("directed: want ErrNodeRange, got %v", err)
	}
}

// TestBinarySparseHeaderMatchesDense checks the two remap layouts: the
// same edges under a header that fits the slice remap and under one
// declaring 2^31 nodes (the map remap) give the same graph and labels.
func TestBinarySparseHeaderMatchesDense(t *testing.T) {
	edges := scatteredEdges(300, 3000, 13)
	dense := writeBSG1(t, edges, true)
	sparse := writeBSG1(t, edges, true)
	setHeaderNodes(t, sparse, 1<<31)
	for _, weighted := range []bool{false, true} {
		want, wlm, err := ReadUndirectedFile(dense, weighted, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, glm, err := ReadUndirectedFile(sparse, weighted, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("weighted=%v: sparse-header graph differs", weighted)
		}
		checkLabelMapsAgree(t, glm, wlm)
	}
	want, _, err := ReadDirectedFile(dense, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadDirectedFile(sparse, 1)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("sparse-header directed graph differs (err %v)", err)
	}
}

// TestBinaryHugeHeaderSmallAlloc checks a one-edge file declaring 2^31
// nodes loads without allocating by the header.
func TestBinaryHugeHeaderSmallAlloc(t *testing.T) {
	path := writeBSG1(t, []Edge{{U: 0, V: math.MaxInt32, Weight: 1}}, false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, lm, err := ReadUndirectedFile(path, false, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 || lm.Label(1) != "2147483647" {
		t.Fatalf("got n=%d m=%d label %q", g.NumNodes(), g.NumEdges(), lm.Label(1))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Fatalf("load allocated %d bytes, want < 16 MiB", alloc)
	}
}

// TestBinaryLoadAllocsPerFile checks a BSG1 load allocates per file,
// not per edge or per block: the same count at 10k edges (2 blocks) and
// 200k edges (25 blocks), at one worker and on the two-shard parallel
// path. Under the race detector sync.Pool drops items at random, so
// there a few pool misses may separate the two counts.
func TestBinaryLoadAllocsPerFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200k-edge file")
	}
	allocs := func(m, workers int) float64 {
		g := freezeUndirected(t, m/5, randomEdges(m/5, m, 3), false)
		path := filepath.Join(t.TempDir(), "g.bsg")
		if err := WriteUndirectedBinary(path, g); err != nil {
			t.Fatal(err)
		}
		// A GC between runs empties the edgeio buffer pools, which is a
		// per-collection cost rather than a per-edge one.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(5, func() {
			if _, _, err := ReadUndirectedFile(path, false, workers); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, workers := range []int{1, 2} {
		small, large := allocs(10000, workers), allocs(200000, workers)
		if large != small && !(raceEnabled && large <= small+4) {
			t.Fatalf("workers=%d: allocations grow with the edge count: %v at 10k edges, %v at 200k", workers, small, large)
		}
	}
}

// BenchmarkReadBinaryFile loads a 2M-edge BSG1 file over 200k nodes,
// with labels scattered across [0, 1.4M) so the first-seen relabel has
// work to do, at one and two workers.
func BenchmarkReadBinaryFile(b *testing.B) {
	path := writeBSG1(b, scatteredEdges(200000, 1<<21, 1), false)
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(st.Size())
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := ReadUndirectedFile(path, false, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzReadUndirectedBinary feeds arbitrary bytes to the BSG1 resident
// loaders. Each must return an error or a graph that passes Validate
// with one label per node, must return the same at workers 1 and 3, and
// must never panic.
func FuzzReadUndirectedBinary(f *testing.F) {
	path := filepath.Join(f.TempDir(), "f.bsg") // inputs run one at a time per process
	f.Fuzz(func(t *testing.T, data []byte, weighted bool) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		g, lm, err := readUndirectedBinary(path, weighted, 1)
		if err == nil {
			if err := g.Validate(); err != nil {
				t.Fatalf("undirected: %v", err)
			}
			if lm.Len() != g.NumNodes() {
				t.Fatalf("undirected: %d labels for %d nodes", lm.Len(), g.NumNodes())
			}
		}
		g3, lm3, err3 := readUndirectedBinary(path, weighted, 3)
		if msg := loadMismatch(g3, g, lm3, lm, err3, err); msg != "" {
			t.Fatalf("undirected, workers=3: %s", msg)
		}
		dg, dlm, derr := readDirectedBinary(path, 1)
		if derr == nil {
			if err := dg.Validate(); err != nil {
				t.Fatalf("directed: %v", err)
			}
			if dlm.Len() != dg.NumNodes() {
				t.Fatalf("directed: %d labels for %d nodes", dlm.Len(), dg.NumNodes())
			}
		}
		dg3, dlm3, derr3 := readDirectedBinary(path, 3)
		if msg := loadMismatch(dg3, dg, dlm3, dlm, derr3, derr); msg != "" {
			t.Fatalf("directed, workers=3: %s", msg)
		}
	})
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool
