package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	ds "densestream"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the ID of the span that caused it, 0 for a root.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"startNs"`
	EndNS   int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced runs turn tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation ID.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, op int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
	return id
}

// passClock turns Options.Progress calls into per-pass child spans. The
// hook fires at the start of every pass, so the time before the first
// call is ingest (load or first scan) and each later gap is one pass.
type passClock struct {
	marks []time.Time
	edges int64 // live edges summed over every pass start
}

func (c *passClock) hook(stat ds.PassStat) bool {
	c.marks = append(c.marks, time.Now())
	c.edges += stat.Edges
	return true
}

// passes returns each pass's duration, the last one ending at end.
func (c *passClock) passes(end time.Time) []time.Duration {
	out := make([]time.Duration, len(c.marks))
	for i, m := range c.marks {
		next := end
		if i+1 < len(c.marks) {
			next = c.marks[i+1]
		}
		out[i] = next.Sub(m)
	}
	return out
}

// record adds a root span for the whole call plus its ingest and pass
// children.
func (c *passClock) record(t *tracer, name string, op int64, start, end time.Time) {
	id := t.add(name, 0, op, start, end)
	if len(c.marks) == 0 {
		return
	}
	t.add(name+".ingest", id, op, start, c.marks[0])
	for i, m := range c.marks {
		next := end
		if i+1 < len(c.marks) {
			next = c.marks[i+1]
		}
		t.add(name+".pass", id, op, m, next)
	}
}

// selfTime reduces the spans to per-name totals: wall time, and self
// time, which is the wall time minus the part its children cover.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"totalMs"`
	SelfMS  float64 `json:"selfMs"`
}

func (t *tracer) selfTimes() []selfTime {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*selfTime{}
	for _, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
		}
		dur := float64(s.EndNS - s.StartNS)
		a.Count++
		a.TotalMS += dur / 1e6
		a.SelfMS += (dur - float64(covered(children[s.ID], s.StartNS, s.EndNS))) / 1e6
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(kids []span, lo, hi int64) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	cur := lo
	for _, k := range kids {
		s, e := max(k.StartNS, cur), min(k.EndNS, hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

func (t *tracer) printSelf(w io.Writer) {
	fmt.Fprintf(w, "%-24s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range t.selfTimes() {
		fmt.Fprintf(w, "%-24s %8d %12.3f %12.3f\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
	}
}

func (t *tracer) write(path string, sh shape) error {
	data, err := json.Marshal(struct {
		Shape shape      `json:"shape"`
		Self  []selfTime `json:"self"`
		Spans []span     `json:"spans"`
	}{sh, t.selfTimes(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// overheadPct is how much slower the traced ops ran than the untraced
// ones, as a share of the untraced median; 0 without untraced ops.
func overheadPct(plain, traced []float64) float64 {
	if len(plain) == 0 || len(traced) == 0 {
		return 0
	}
	return (median(traced) - median(plain)) / median(plain) * 100
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile is the nearest-rank q-quantile; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tail is the 99th percentile or, with too few samples for ten of them to
// lie beyond it, the highest percentile that still has ten beyond it; the
// median when even that is out of reach.
func tail(xs []float64) float64 {
	q := min(0.99, 1-10/float64(len(xs)))
	if q <= 0.5 {
		return median(xs)
	}
	return quantile(xs, q)
}

func durationsMS(xs []time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, d := range xs {
		out[i] = float64(d) / 1e6
	}
	return out
}
