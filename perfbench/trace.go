package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"riskroute"
)

// span is one traced call into a layer's public function. Spans stay in
// memory until the run ends; attrs carries counts measured at the same
// boundary (response bytes, allocations).
type span struct {
	name       string
	start, end time.Duration // offsets from the recorder's base
	parent     int           // index of the enclosing span, -1 for top level
	req        int           // request (or scenario, network) index, -1 for none
	attrs      []attr
}

type attr struct {
	key string
	val int64
}

// recorder collects the spans of one traced replay. It is used from a
// single goroutine.
type recorder struct {
	name  string
	base  time.Time
	spans []span
}

func newRecorder(name string) *recorder {
	return &recorder{name: name, base: time.Now()}
}

// begin opens a span and returns its handle for end.
// A nil recorder records nothing: begin returns -1 and end ignores it, so
// code shared by timed and traced runs calls it unconditionally.
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.base), parent: parent, req: req})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r != nil {
		r.spans[i].end = time.Since(r.base)
	}
}

func (r *recorder) setAttr(i int, key string, val int64) {
	r.spans[i].attrs = append(r.spans[i].attrs, attr{key, val})
}

// durations returns the durations in seconds of every span named name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// attrSum totals one attribute over the spans named name and counts them.
func (r *recorder) attrSum(name, key string) (sum int64, spans int) {
	for _, s := range r.spans {
		if s.name != name {
			continue
		}
		spans++
		for _, a := range s.attrs {
			if a.key == key {
				sum += a.val
			}
		}
	}
	return sum, spans
}

// snapshot converts the spans into the facade's span tree, so the Chrome
// trace exporter (the one behind cmd/experiments -trace-out) can write it.
func (r *recorder) snapshot() riskroute.SpanSnapshot {
	children := make([][]int, len(r.spans))
	var top []int
	var last time.Duration
	for i, s := range r.spans {
		if s.parent < 0 {
			top = append(top, i)
		} else {
			children[s.parent] = append(children[s.parent], i)
		}
		last = max(last, s.end)
	}
	var build func(i int) riskroute.SpanSnapshot
	build = func(i int) riskroute.SpanSnapshot {
		s := r.spans[i]
		ss := riskroute.SpanSnapshot{Name: s.name, StartNS: int64(s.start), DurationNS: int64(s.end - s.start)}
		if s.req >= 0 || len(s.attrs) > 0 {
			ss.Attrs = map[string]any{}
			if s.req >= 0 {
				ss.Attrs["req"] = s.req
			}
			for _, a := range s.attrs {
				ss.Attrs[a.key] = a.val
			}
		}
		for _, c := range children[i] {
			ss.Children = append(ss.Children, build(c))
		}
		return ss
	}
	root := riskroute.SpanSnapshot{Name: r.name, DurationNS: int64(last)}
	for _, i := range top {
		root.Children = append(root.Children, build(i))
	}
	return root
}

// write exports the spans as Chrome trace-event JSON to path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := riskroute.WriteChromeTrace(bw, r.snapshot()); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerFromSpans derives the span-timed per-layer metrics: each is the mean
// duration of the named span (0 when the workload never calls that layer),
// except the handler percentiles, which are exact.
func (r *recorder) layerFromSpans(rep *report) {
	for _, m := range []struct {
		metric, span string
		scale        float64
	}{
		{"snapshot.load_ms", "snapshot.load", 1e3},
		{"serve.new_ms", "serve.new", 1e3},
		{"serve.apply_advisory_ms", "serve.apply_advisory", 1e3},
		{"core.riskroute_pair_us", "core.riskroute_pair", 1e6},
		{"core.shortest_pair_us", "core.shortest_pair", 1e6},
		{"core.new_us", "core.new", 1e6},
		{"core.explain_us", "core.explain", 1e6},
		{"risk.weighted_graph_us", "risk.weighted_graph", 1e6},
		{"graph.shortest_path_us", "graph.shortest_path", 1e6},
		{"forecast.parse_us", "forecast.parse", 1e6},
		{"forecast.pop_risks_us", "forecast.pop_risks", 1e6},
		{"hazard.fit_ms", "hazard.fit", 1e3},
		{"datasets.census_ms", "datasets.census", 1e3},
		{"population.assign_ms", "population.assign", 1e3},
		{"scenario.generate_ms", "scenario.generate", 1e3},
		{"scenario.compile_us", "scenario.compile", 1e6},
		{"scenario.sweep_ms", "scenario.sweep", 1e3},
	} {
		d := r.durations(m.span)
		rep.set(m.metric, mean(d)*m.scale, fmt.Sprintf("mean of %d %s spans", len(d), m.span))
	}
	h := r.durations("serve.handler")
	rep.set("serve.handler_us.p50", quantile(h, 0.5)*1e6, fmt.Sprintf("n=%d", len(h)))
	rep.set("serve.handler_us.p99", quantile(h, 0.99)*1e6, fmt.Sprintf("n=%d", len(h)))
	bytes, n := r.attrSum("serve.handler", "bytes")
	rep.set("serve.resp_bytes", perCount(bytes, n), fmt.Sprintf("mean over %d responses", n))
	for _, m := range []struct{ metric, span, per string }{
		{"core.allocs_per_pair", "core.alloc_pass", "pairs"},
		{"scenario.allocs_per_scenario", "scenario.alloc_pass", "scenarios"},
	} {
		allocs, _ := r.attrSum(m.span, "allocs")
		per, _ := r.attrSum(m.span, m.per)
		rep.set(m.metric, perCount(allocs, int(per)), fmt.Sprintf("%d allocations over %d %s", allocs, per, m.per))
	}
}

func perCount(total int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Mallocs)
}
