package edgeio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, content string) *FileSource {
	t.Helper()
	path := filepath.Join(t.TempDir(), "edges.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func drainReader(t *testing.T, r Reader) []Edge {
	t.Helper()
	if err := r.Reset(); err != nil {
		t.Fatal(err)
	}
	var out []Edge
	for {
		e, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
}

func sameEdges(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFileShardSweep checks that for every shard count the shards
// together yield exactly the sequential scan, in order, across inputs
// exercising comments, blanks, CRLF, self loops, and a missing
// trailing newline.
func TestFileShardSweep(t *testing.T) {
	contents := []string{
		"0 1\n1 2\n2 3\n3 4\n4 5\n",
		"# header\n0 1\n\n1 2\n% other comment style\n2 2\n2 3\n",
		"0 1\r\n1 2\r\n\r\n2 3\r\n",     // CRLF
		"0 1\n1 2\n2 3",                 // no trailing newline
		"0 1",                           // single line, no newline
		"",                              // empty file
		"# only a comment\n",            //
		"10 11\n11 12\n10 12\n12 13\n#", // trailing comment without newline
	}
	for ci, content := range contents {
		src := writeFile(t, content)
		want := drainReader(t, src.SequentialReader())
		for k := 1; k <= 9; k++ {
			var got []Edge
			for _, sh := range src.FileShards(k) {
				got = append(got, drainReader(t, sh)...)
				sh.Close()
			}
			if !sameEdges(got, want) {
				t.Fatalf("content %d k=%d: shards gave %v, sequential %v", ci, k, got, want)
			}
		}
	}
}

// TestFileShardEverySplitPoint drives a two-shard split at every byte
// boundary of the file — including boundaries landing mid-line and
// exactly on line starts — and checks the pair always reproduces the
// sequential scan.
func TestFileShardEverySplitPoint(t *testing.T) {
	content := "0 1\n# c\n1 2\r\n\n22 33\n3 4"
	src := writeFile(t, content)
	want := drainReader(t, src.SequentialReader())
	size := src.Size()
	for b := int64(0); b <= size; b++ {
		left := &FileShard{src: src, lo: 0, hi: b}
		right := &FileShard{src: src, lo: b, hi: size}
		got := append(drainReader(t, left), drainReader(t, right)...)
		left.Close()
		right.Close()
		if !sameEdges(got, want) {
			t.Fatalf("split at byte %d: %v, want %v", b, got, want)
		}
	}
}

// TestFileShardRescan checks shards survive repeated Reset/scan cycles
// (the streaming peelers re-scan every pass) and that Close is
// idempotent with Reset failing afterwards.
func TestFileShardRescan(t *testing.T) {
	src := writeFile(t, "0 1\n1 2\n2 3\n3 0\n")
	shards := src.FileShards(3)
	var first []Edge
	for pass := 0; pass < 3; pass++ {
		var got []Edge
		for _, sh := range shards {
			got = append(got, drainReader(t, sh)...)
		}
		if pass == 0 {
			first = got
		} else if !sameEdges(got, first) {
			t.Fatalf("pass %d: %v != first pass %v", pass, got, first)
		}
	}
	if len(first) != 4 {
		t.Fatalf("got %d edges, want 4", len(first))
	}
	sh := shards[0]
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := sh.Reset(); err == nil {
		t.Fatal("Reset after Close succeeded")
	}
}

func TestFileShardParseErrors(t *testing.T) {
	cases := []string{"0 x\n", "onlyone\n", "0 -1\n", "99999999999999999999 1\n"}
	for _, content := range cases {
		src := writeFile(t, content)
		r := src.SequentialReader()
		if err := r.Reset(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err == nil || err == io.EOF {
			t.Fatalf("content %q: error not reported (err=%v)", content, err)
		}
		r.Close()
	}
}

func TestWeightedFileShards(t *testing.T) {
	src := writeFile(t, "0 1 2.5\n1 2\r\n# c\n2 3 0.25\n3 3 9\n3 4 1.5")
	want := []WeightedEdge{{0, 1, 2.5}, {1, 2, 1}, {2, 3, 0.25}, {3, 4, 1.5}}
	for k := 1; k <= 6; k++ {
		var got []WeightedEdge
		for _, sh := range src.WeightedShards(k) {
			if err := sh.Reset(); err != nil {
				t.Fatal(err)
			}
			for {
				e, err := sh.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, e)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d edges, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d edge %d: %+v want %+v", k, i, got[i], want[i])
			}
		}
	}
	bad := writeFile(t, "0 1 -3\n")
	sh := bad.WeightedShards(1)[0]
	if err := sh.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Next(); err == nil || err == io.EOF {
		t.Fatalf("negative weight accepted (err=%v)", err)
	}
}

// TestFileShardLineBound checks LineBound bounds the lines each shard
// then yields, for every shard count, and leaves the shard able to scan
// its lines after a Reset.
func TestFileShardLineBound(t *testing.T) {
	long := strings.Repeat("9", 70000) // longer than the read buffer
	contents := []string{
		"0 1\n1 2\n2 3\n3 4\n4 5\n",
		"# header\n0 1\n\n1 2\r\n% c\n2 3",
		"\n\n\n",
		"",
		"0 " + long + "\n" + long + " 1\n1 2\n",
	}
	for ci, content := range contents {
		src := writeFile(t, content)
		for k := 1; k <= 9; k++ {
			total := 0
			for i, sh := range src.FileShards(k) {
				bound, err := sh.LineBound()
				if err != nil {
					t.Fatal(err)
				}
				if err := sh.Reset(); err != nil {
					t.Fatal(err)
				}
				lines := 0
				for {
					_, _, err := sh.NextLineBytes()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					lines++
				}
				sh.Close()
				if lines > bound {
					t.Fatalf("content %d k=%d shard %d: %d lines, bound %d", ci, k, i, lines, bound)
				}
				total += bound
			}
			if want := strings.Count(content, "\n") + k; total > want {
				t.Fatalf("content %d k=%d: bounds sum to %d, want at most %d", ci, k, total, want)
			}
		}
	}
}

// TestParseCanonicalLine checks which lines the label-preserving fast
// path accepts and what it reads from them.
func TestParseCanonicalLine(t *testing.T) {
	cases := []struct {
		line     string
		weighted bool
		u, v     int32
		w        float64
		skip, ok bool
	}{
		{"0 1", false, 0, 1, 1, false, true},
		{"\t12\t34 extra\r", false, 12, 34, 1, false, true},
		{"2147483647 0", false, 2147483647, 0, 1, false, true},
		{"5 5", false, 5, 5, 1, true, true},
		{"", false, 0, 0, 0, true, true},
		{"  # 007 x", false, 0, 0, 0, true, true},
		{"% c", true, 0, 0, 0, true, true},
		{"1 2 0.5", true, 1, 2, 0.5, false, true},
		{"1 2 0.5", false, 1, 2, 1, false, true},
		{"1 2", true, 1, 2, 1, false, true},
		{"1 2 x", false, 1, 2, 1, false, true},
		{"007 1", false, 0, 0, 0, false, false},
		{"1 00", false, 0, 0, 0, false, false},
		{"+1 2", false, 0, 0, 0, false, false},
		{"-1 2", false, 0, 0, 0, false, false},
		{"2147483648 1", false, 0, 0, 0, false, false},
		{"1x 2", false, 0, 0, 0, false, false},
		{"1 2x", false, 0, 0, 0, false, false},
		{"1\u00a02", false, 0, 0, 0, false, false},
		{"1", false, 0, 0, 0, false, false},
		{"1 2 x", true, 0, 0, 0, false, false},
		{"1 2 0", true, 0, 0, 0, false, false},
		{"1 2 NaN", true, 0, 0, 0, false, false},
		{"1 2 Inf", true, 0, 0, 0, false, false},
		{"5 5 -1", true, 0, 0, 0, false, false},
	}
	for _, tc := range cases {
		u, v, w, skip, ok := ParseCanonicalLine([]byte(tc.line), tc.weighted)
		if ok != tc.ok || skip != tc.skip || (ok && !skip && (u != tc.u || v != tc.v || w != tc.w)) {
			t.Errorf("ParseCanonicalLine(%q, %v) = %d %d %v skip=%v ok=%v, want %d %d %v skip=%v ok=%v",
				tc.line, tc.weighted, u, v, w, skip, ok, tc.u, tc.v, tc.w, tc.skip, tc.ok)
		}
	}
}

// TestBytesScanned checks the byte tally counts a full scan, a scan cut
// short by Close, and a LineBound pass.
func TestBytesScanned(t *testing.T) {
	content := "0 1\n# comment\n1 2\n"
	src := writeFile(t, content)
	drainReader(t, src.SequentialReader())
	if got := src.BytesScanned(); got != int64(len(content)) {
		t.Fatalf("BytesScanned = %d, want %d", got, len(content))
	}
	sh := src.SequentialReader()
	if _, err := sh.Next(); err != nil {
		t.Fatal(err)
	}
	sh.Close()
	if got, want := src.BytesScanned(), int64(len(content)+len("0 1\n")); got != want {
		t.Fatalf("after a cut scan BytesScanned = %d, want %d", got, want)
	}
	sh = src.SequentialReader()
	if _, err := sh.LineBound(); err != nil {
		t.Fatal(err)
	}
	sh.Close()
	if got, want := src.BytesScanned(), int64(2*len(content)+len("0 1\n")); got != want {
		t.Fatalf("after LineBound BytesScanned = %d, want %d", got, want)
	}
}

func TestSliceSourceShards(t *testing.T) {
	edges := make([]Edge, 17)
	for i := range edges {
		edges[i] = Edge{U: int32(i), V: int32(i + 1)}
	}
	src := &SliceSource{Edges: edges}
	for k := 1; k <= 20; k++ {
		var got []Edge
		for _, sh := range src.Shards(k) {
			got = append(got, drainReader(t, sh)...)
		}
		if !sameEdges(got, edges) {
			t.Fatalf("k=%d: resharded scan differs", k)
		}
	}
	empty := &SliceSource{}
	shards := empty.Shards(4)
	if len(shards) != 1 {
		t.Fatalf("empty source: %d shards, want 1", len(shards))
	}
	if got := drainReader(t, shards[0]); len(got) != 0 {
		t.Fatalf("empty source yielded %v", got)
	}
}

func TestSpillRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "part.spill")
	w, err := CreateSpill(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []Edge
	for i := 0; i < 1000; i++ {
		e := Edge{U: int32(i * 3), V: int32(i*7 + 1)}
		want = append(want, e)
		w.Append(e)
	}
	sp, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Records != 1000 || sp.Bytes != st.Size() || sp.Bytes == 0 {
		t.Fatalf("descriptor %+v (on-disk size %d)", sp, st.Size())
	}
	r, err := sp.OpenReader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for pass := 0; pass < 2; pass++ {
		got := drainReader(t, r)
		if !sameEdges(got, want) {
			t.Fatalf("pass %d: round trip differs", pass)
		}
	}
	// Record-indexed seek.
	if err := r.Seek(990); err != nil {
		t.Fatal(err)
	}
	e, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if e != want[990] {
		t.Fatalf("after seek: %+v, want %+v", e, want[990])
	}
	if err := r.Seek(1001); err == nil {
		t.Fatal("out-of-range seek accepted")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := sp.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("spill file still present: %v", err)
	}
}

func TestOpenFileSourceErrors(t *testing.T) {
	if _, err := OpenFileSource("/nonexistent/file"); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := OpenFileSource(t.TempDir()); err == nil {
		t.Fatal("directory accepted")
	}
}

// Exhaustive boundary fuzz over generated files: many line lengths and
// k values, so some boundary lands on every interesting position
// (start of line, inside a number, on the '\n', on a '\r').
func TestFileShardGeneratedSweep(t *testing.T) {
	content := ""
	for i := 0; i < 200; i++ {
		switch i % 7 {
		case 3:
			content += "# filler comment line\n"
		case 5:
			content += fmt.Sprintf("%d %d\r\n", i, i+1)
		default:
			content += fmt.Sprintf("%d %d\n", i, (i*13)%200)
		}
	}
	src := writeFile(t, content)
	want := drainReader(t, src.SequentialReader())
	for _, k := range []int{2, 3, 5, 8, 13, 32, 100} {
		var got []Edge
		for _, sh := range src.FileShards(k) {
			got = append(got, drainReader(t, sh)...)
			sh.Close()
		}
		if !sameEdges(got, want) {
			t.Fatalf("k=%d: sharded scan differs from sequential", k)
		}
	}
}
