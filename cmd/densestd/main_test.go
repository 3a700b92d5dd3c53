package main

import (
	"bytes"
	"strings"
	"testing"

	"densestream/internal/serve"
)

// TestSmokeParity runs the -smoke mode in-process: one HTTP solve per
// objective × backend, each compared against the in-process Solve, once
// on the registered graphs and once more after an append round.
func TestSmokeParity(t *testing.T) {
	var out bytes.Buffer
	if err := runSmoke(&out, serve.Config{Workers: 2}); err != nil {
		t.Fatalf("smoke failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "all 15 objective/backend cases") {
		t.Fatalf("unexpected smoke output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "all 15 cases stay identical after an append round") {
		t.Fatalf("smoke output missing the append round:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "dynamic ingest path is HTTP/in-process identical") {
		t.Fatalf("smoke output missing dynamic parity:\n%s", out.String())
	}
}

// TestSelfdrive runs a small load-driver pass against a loopback
// daemon and checks it reports throughput.
func TestSelfdrive(t *testing.T) {
	var out bytes.Buffer
	if err := runSelfdrive(&out, serve.Config{Workers: 2}, 32, 4, false); err != nil {
		t.Fatalf("selfdrive failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "qps") {
		t.Fatalf("selfdrive output missing qps:\n%s", out.String())
	}
}

func TestPreloadGraphSpecParsing(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1})
	defer s.Close()
	if _, err := preloadGraph(s, "noequals"); err == nil {
		t.Fatalf("malformed -graph spec should fail")
	}
	if _, err := preloadGraph(s, "g=/definitely/missing.txt"); err == nil {
		t.Fatalf("missing graph file should fail")
	}
}
