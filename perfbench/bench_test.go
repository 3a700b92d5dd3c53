package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// smallSizes keeps the self-test to a few seconds per workload.
var smallSizes = sizes{
	n: 3000, m: 15000,
	serveUN: 3000, serveUM: 15000,
	serveDN: 2000, serveDM: 10000,
	minRequests: 40, probeRequests: 20,
	setupReps: 2, layerReps: 1,
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) (e2e, layers []metricSpec) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

func smallRun(t *testing.T, workload string, trace, corrupt bool) result {
	t.Helper()
	cfg := config{
		workload: workload, seed: 7, seconds: 0.2, trace: trace, workers: 2,
		size: smallSizes, dir: t.TempDir(), corruptRef: corrupt,
	}
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return res
}

// TestMetricsPrinted runs every workload at a small size in both modes
// and checks that exactly the metrics BENCHMARK.json names are printed,
// each with its unit, and that every op passed its check.
func TestMetricsPrinted(t *testing.T) {
	e2e, layers := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := smallRun(t, w, trace, false)
			want := e2e
			if trace {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, ms := range want {
				got, ok := res.Metrics[ms.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, ms.Name)
				case got.Unit != ms.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w, trace, ms.Name, got.Unit, ms.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, ms.Name, got.Value)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

// TestWrongReferenceFails checks that a deliberately wrong reference is
// counted as failed ops rather than passed silently.
func TestWrongReferenceFails(t *testing.T) {
	for _, w := range workloads {
		res := smallRun(t, w, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with a wrong reference: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
	}
}
