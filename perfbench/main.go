// Command perfbench is the end-to-end benchmark of densestream: it drives
// the library and the densestd HTTP service from a file or a request to a
// Solution, checks every answer against a reference computed another way,
// and prints one JSON result line.
//
//	perfbench --workload bsg1-peel --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off. With
// --trace 1 it makes one traced run instead: spans around every call it
// makes into a layer (edgeio, graph, core, stream, mapreduce, serve) give
// the per-layer metrics. The program under test is a black box: the
// benchmark only calls exported functions, reads the Options.Progress
// hook, Solution fields and densestd's /metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
)

// sizes fixes the input sizes of every workload.
type sizes struct {
	n, m             int // ChungLu graph of the file workloads
	serveUN, serveUM int // undirected graph "u" of serve-mix
	serveDN, serveDM int // directed graph "d" of serve-mix
	minRequests      int // serve-mix requests per run, at least
	probeRequests    int // requests of the traced serve probe on file workloads
	setupReps        int // set-ups per untraced run; setup_s is their median
	layerReps        int // repetitions of each traced layer probe
}

var fullSizes = sizes{
	n: 400_000, m: 1 << 21,
	serveUN: 100_000, serveUM: 500_000,
	serveDN: 50_000, serveDM: 250_000,
	minRequests: 1000, probeRequests: 60,
	setupReps: 3, layerReps: 3,
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int
	size     sizes
	// dir holds the generated inputs and the span dumps; it is
	// relative to the directory the benchmark runs in.
	dir string
	// corruptRef perturbs every reference answer, so that the self-test
	// can check that a wrong answer is counted as a failure.
	corruptRef bool
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// shape records the host and the run shape next to every result.
type shape struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numCPU"`
	GoVersion  string  `json:"goVersion"`
	CPUModel   string  `json:"cpuModel"`
	Workers    int     `json:"workers"`
	Nodes      int     `json:"nodes"`
	Edges      int64   `json:"edges"`
	FileBytes  int64   `json:"fileBytes"`
	Requests   int     `json:"requests"`
}

// tally counts attempted and failed operations. An operation fails when
// it returns an error, gets a non-200 response, or fails its check.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

var workloads = []string{"bsg1-peel", "bsg1-stream", "text-mapreduce", "serve-mix"}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{size: fullSizes, workers: runtime.GOMAXPROCS(0), dir: filepath.Join(".bench_build", "run")}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloads, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measuring time per run")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if !slices.Contains(workloads, cfg.workload) {
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// run executes one benchmark run in a fresh scratch directory, which it
// removes again except for the span dump of a traced run.
func run(cfg config, stdout io.Writer) (result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(cfg.dir, cfg.workload+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	sh := shape{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), CPUModel: cpuModel(), Workers: cfg.workers,
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var t tally
	var metrics map[string]metric
	if cfg.workload == "serve-mix" {
		metrics, err = runServeMix(cfg, work, tr, &t, &sh)
	} else {
		metrics, err = runFile(cfg, work, tr, &t, &sh)
	}
	if err != nil {
		return result{}, err
	}
	line, _ := json.Marshal(sh)
	fmt.Fprintf(stdout, "shape %s\n", line)
	if tr != nil {
		dump := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(dump, sh); err != nil {
			return result{}, err
		}
		tr.printSelf(stdout)
		fmt.Fprintf(stdout, "spans written to %s\n", dump)
	}
	for _, e := range t.errs {
		fmt.Fprintf(os.Stderr, "perfbench: failed op: %s\n", e)
	}
	printTable(stdout, metrics)
	errRate := 0.0
	if t.attempted > 0 {
		errRate = float64(t.failed) / float64(t.attempted)
	}
	fmt.Fprintf(stdout, "%-28s %14.6g %s (%d of %d ops)\n", "error_rate", errRate, "ratio", t.failed, t.attempted)
	for k, m := range metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			// A failed op counts as beyond every latency limit; JSON
			// has no infinity, so it reads as the largest float.
			metrics[k] = metric{math.MaxFloat64, m.Unit}
		}
	}
	return result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

func printTable(w io.Writer, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
}

// cpuModel reads the processor name the kernel reports; "unknown" where
// there is none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
