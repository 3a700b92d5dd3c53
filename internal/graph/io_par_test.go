package graph

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"

	"densestream/internal/edgeio"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadUndirectedFileMatchesSequential checks the sharded file
// loader is bit-identical to ReadUndirected for every worker count,
// including string labels interned in first-seen order, CRLF, and a
// missing trailing newline.
func TestReadUndirectedFileMatchesSequential(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# labels on purpose out of numeric order\r\n")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&sb, "n%d m%d\n", (i*37)%100, (i*53+1)%100)
	}
	sb.WriteString("alpha beta\r\nbeta gamma\nalpha gamma") // no trailing \n
	path := writeTemp(t, sb.String())

	want, wantLM, err := ReadUndirected(strings.NewReader(sb.String()), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		got, lm, err := ReadUndirectedFile(path, false, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: graph differs from sequential", workers)
		}
		if lm.Len() != wantLM.Len() {
			t.Fatalf("workers=%d: %d labels, want %d", workers, lm.Len(), wantLM.Len())
		}
		for id := int32(0); int(id) < lm.Len(); id++ {
			if lm.Label(id) != wantLM.Label(id) {
				t.Fatalf("workers=%d: label[%d] = %q, want %q", workers, id, lm.Label(id), wantLM.Label(id))
			}
		}
	}
}

// TestReadUndirectedFileWeighted checks weighted parsing parity.
func TestReadUndirectedFileWeighted(t *testing.T) {
	content := "a b 2.5\nb c\nc d 0.25\r\nd a 4"
	path := writeTemp(t, content)
	want, _, err := ReadUndirected(strings.NewReader(content), true)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadUndirectedFile(path, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("weighted sharded load differs from sequential")
	}
}

// TestReadDirectedFileMatchesSequential is the directed analogue.
func TestReadDirectedFileMatchesSequential(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "u%d v%d\n", (i*11)%60, (i*29+3)%60)
	}
	path := writeTemp(t, sb.String())
	want, _, err := ReadDirected(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		got, _, err := ReadDirectedFile(path, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: directed graph differs", workers)
		}
	}
}

// TestReadFileParseErrorsKeepLineNumbers checks the fallback path: a
// malformed file reports the canonical *ParseError with its line
// number, exactly as the sequential reader does.
func TestReadFileParseErrorsKeepLineNumbers(t *testing.T) {
	path := writeTemp(t, "a b\nc\n")
	_, _, err := ReadUndirectedFile(path, false, 4)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %v", err)
	}
	if pe.Line != 2 {
		t.Fatalf("ParseError.Line = %d, want 2", pe.Line)
	}

	badw := writeTemp(t, "a b 1\nc d -2\n")
	_, _, err = ReadUndirectedFile(badw, true, 4)
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError for bad weight, got %v", err)
	}
	if pe.Line != 2 || !errors.Is(pe, ErrBadWeight) {
		t.Fatalf("bad-weight ParseError = %+v", pe)
	}

	if _, _, err := ReadUndirectedFile("/nonexistent/file", false, 2); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, _, err := ReadDirectedFile("/nonexistent/file", 2); err == nil {
		t.Fatal("missing directed file accepted")
	}
}

// loadMismatch describes how a file load differs from the sequential
// load of the same bytes — graph, labels, or error — or returns "".
func loadMismatch(got, want any, glm, wlm *LabelMap, gerr, werr error) string {
	if (gerr == nil) != (werr == nil) {
		return fmt.Sprintf("error %v, sequential %v", gerr, werr)
	}
	if werr != nil {
		if gerr.Error() != werr.Error() || errors.Is(gerr, ErrBadWeight) != errors.Is(werr, ErrBadWeight) {
			return fmt.Sprintf("error %v, sequential %v", gerr, werr)
		}
		return ""
	}
	if !reflect.DeepEqual(got, want) {
		return "graph differs from sequential"
	}
	if glm.Len() != wlm.Len() {
		return fmt.Sprintf("%d labels, sequential %d", glm.Len(), wlm.Len())
	}
	for id := int32(0); int(id) < wlm.Len(); id++ {
		if glm.Label(id) != wlm.Label(id) {
			return fmt.Sprintf("label[%d] = %q, sequential %q", id, glm.Label(id), wlm.Label(id))
		}
	}
	for id := int32(0); int(id) < wlm.Len(); id++ {
		if got, ok := glm.Lookup(wlm.Label(id)); !ok || got != id {
			return fmt.Sprintf("Lookup(%q) = %d,%v, want %d", wlm.Label(id), got, ok, id)
		}
	}
	return ""
}

// fileLoadMismatch loads the file at path, holding data, with
// ReadUndirectedFile and (unweighted) ReadDirectedFile and compares
// each with the sequential reader on data.
func fileLoadMismatch(path string, data []byte, weighted bool, workers int) string {
	g, glm, gerr := ReadUndirectedFile(path, weighted, workers)
	w, wlm, werr := ReadUndirected(bytes.NewReader(data), weighted)
	if msg := loadMismatch(g, w, glm, wlm, gerr, werr); msg != "" {
		return "undirected: " + msg
	}
	if weighted {
		return ""
	}
	dg, dglm, dgerr := ReadDirectedFile(path, workers)
	dw, dwlm, dwerr := ReadDirected(bytes.NewReader(data))
	if msg := loadMismatch(dg, dw, dglm, dwlm, dgerr, dwerr); msg != "" {
		return "directed: " + msg
	}
	return ""
}

// checkFileLoads writes content to a file and checks every file load
// matches the sequential one at workers 1, 2, 4 and 7. canonical says
// whether the integer fast path must take the file.
func checkFileLoads(t *testing.T, content string, weighted, canonical bool) {
	t.Helper()
	path := writeTemp(t, content)
	for _, workers := range []int{1, 2, 4, 7} {
		if _, _, ok := scanCanonical(path, weighted, workers); ok != canonical {
			t.Fatalf("workers=%d: fast path taken = %v, want %v", workers, ok, canonical)
		}
		if msg := fileLoadMismatch(path, []byte(content), weighted, workers); msg != "" {
			t.Fatalf("workers=%d: %s", workers, msg)
		}
	}
}

// numericLines returns m edge lines over integer labels scattered across
// [0, 7n), out of numeric order and with a few self loops, ending in a
// newline; weighted lines carry a third column.
func numericLines(n, m int, weighted bool, seed int64) string {
	var sb strings.Builder
	for i, e := range scatteredEdges(n, m, seed) {
		if weighted {
			fmt.Fprintf(&sb, "%d\t%d\t%g\n", e.U, e.V, float64(i%13+1)/4)
		} else {
			fmt.Fprintf(&sb, "%d %d\n", e.U, e.V)
		}
	}
	return sb.String()
}

// TestReadFileNumericMatchesSequential checks the canonical-integer fast
// path is bit-identical to the sequential string interning, graph and
// labels, for unweighted, weighted and directed loads.
func TestReadFileNumericMatchesSequential(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		content := "# SNAP-style header\n" + numericLines(300, 4000, weighted, 5)
		checkFileLoads(t, content, weighted, true)
		checkFileLoads(t, strings.TrimSuffix(content, "\n"), weighted, true)
	}
	checkFileLoads(t, "", false, true)
	checkFileLoads(t, "# only comments\n\n% here\n", false, true)
}

// TestReadFileNumericEdgeLines puts one edge line in the middle of a
// numeric file and checks the load matches the sequential reader, and
// that exactly the lines whose labels are canonical integers keep the
// fast path: anything else sends the whole file down the string path.
func TestReadFileNumericEdgeLines(t *testing.T) {
	cases := []struct {
		name, line          string
		weighted, canonical bool
	}{
		{"zero", "0 5", false, true},
		{"leading zero", "007 7", false, false},
		{"plus sign", "+5 1", false, false},
		{"negative", "-1 2", false, false},
		{"max int32", "2147483647 1", false, true},
		{"past int32", "2147483648 1", false, false},
		{"letter suffix", "3 4x", false, false},
		{"crlf", "3 4\r", false, true},
		{"tabs", "\t3\t\t4\t", false, true},
		{"nbsp separator", "3\u00a04", false, false},
		{"nbsp before comment", "\u00a0# note", false, false},
		{"extra fields", "3 4 extra fields", false, true},
		{"hash comment", "# 1 2", false, true},
		{"percent comment", "% 1 2", false, true},
		{"indented comment", "  \t# 1 2", false, true},
		{"blank", "   ", false, true},
		{"self loop", "4 4", false, true},
		{"one field", "5", false, false},
		{"weight", "1 2 2.5", true, true},
		{"exponent weight", "1 2 1e+06", true, true},
		{"default weight", "1 2", true, true},
		{"weight crlf", "3 4 2\r", true, true},
		{"weight extra fields", "1 2 3 extra", true, true},
		{"weighted self loop", "4 4 2", true, true},
		{"zero weight", "1 2 0", true, false},
		{"negative weight", "1 2 -3", true, false},
		{"nan weight", "1 2 NaN", true, false},
		{"inf weight", "1 2 +Inf", true, false},
		{"bad weight", "1 2 x", true, false},
		{"weighted self loop bad weight", "4 4 x", true, false},
		{"weighted leading zero", "007 2 1.5", true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lines := strings.SplitAfter(numericLines(20, 300, tc.weighted, 9), "\n")
			lines = append(lines, "7 9\n") // "007" and "7" must stay distinct labels
			mid := len(lines) / 2
			content := strings.Join(lines[:mid], "") + tc.line + "\n" + strings.Join(lines[mid:], "")
			checkFileLoads(t, content, tc.weighted, tc.canonical)
		})
	}
}

// TestReadFileFallbackFromLastShard checks a file whose only
// non-numeric label is on its last line: every other shard's fast
// scan succeeds, the last one fails, and the whole file still loads
// exactly as the sequential reader reads it.
func TestReadFileFallbackFromLastShard(t *testing.T) {
	content := numericLines(200, 3000, false, 13) + "x 3\n"
	checkFileLoads(t, content, false, false)

	src, err := edgeio.OpenFileSource(writeTemp(t, content))
	if err != nil {
		t.Fatal(err)
	}
	shards := src.FileShards(4)
	var failed atomic.Bool
	for i, sh := range shards {
		bound, err := sh.LineBound()
		if err != nil {
			t.Fatal(err)
		}
		_, _, ok := scanCanonicalShard(sh, false, make([]Edge, bound), &failed)
		if last := i == len(shards)-1; ok == last {
			t.Fatalf("shard %d of %d: fast scan ok = %v", i, len(shards), ok)
		}
		sh.Close()
	}
}

// TestTextLoadAllocsPerFile checks a numeric text load allocates per
// file, not per edge or per line: the same count at 10k edges and at
// 200k, at one worker and on the two-shard parallel path. Under the
// race detector sync.Pool drops items at random, so there a few pool
// misses may separate the two counts.
func TestTextLoadAllocsPerFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200k-edge file")
	}
	allocs := func(m, workers int) float64 {
		path := writeTemp(t, numericLines(m/5, m, false, 3))
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

// FuzzReadTextFile feeds arbitrary bytes to the text file loaders. At
// workers 1 and 3 each must return what the sequential reader returns
// on the same bytes — the same error, or the same graph and labels —
// and must never panic.
func FuzzReadTextFile(f *testing.F) {
	path := filepath.Join(f.TempDir(), "f.txt") // inputs run one at a time per process
	f.Fuzz(func(t *testing.T, data []byte, weighted bool) {
		if bytes.HasPrefix(data, []byte("BSG1")) {
			t.Skip("binary magic: the file loaders read it as BSG1")
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			if msg := fileLoadMismatch(path, data, weighted, workers); msg != "" {
				t.Fatalf("workers=%d: %s", workers, msg)
			}
		}
	})
}

// BenchmarkReadUndirectedFile loads one 200k-edge graph from a numeric
// text file with scattered labels and from its BSG1 conversion.
func BenchmarkReadUndirectedFile(b *testing.B) {
	dir := b.TempDir()
	txt, bin := filepath.Join(dir, "g.txt"), filepath.Join(dir, "g.bsg")
	if err := os.WriteFile(txt, []byte(numericLines(40000, 200000, false, 1)), 0o644); err != nil {
		b.Fatal(err)
	}
	g, _, err := ReadUndirectedFile(txt, false, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := WriteUndirectedBinary(bin, g); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct{ name, path string }{{"text", txt}, {"bsg1", bin}} {
		b.Run(bc.name, func(b *testing.B) {
			st, err := os.Stat(bc.path)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(st.Size())
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := ReadUndirectedFile(bc.path, false, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
