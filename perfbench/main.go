// Command perfbench is riskroute's end-to-end benchmark. It measures what
// riskroute's users see: routes answered by the riskrouted daemon over a
// loopback TCP listener, and scenario ensembles swept in-process through the
// riskroute facade. A separate traced run replays the same generated inputs
// in-process and breaks the time down by layer.
//
// Run it through run.sh from the repository root, which builds riskrouted
// and this harness first:
//
//	sh perfbench/run.sh --workload route-cold --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones, with --trace 1 the per-layer ones. Earlier lines record
// the environment, the load shape and every metric with its unit and sample
// count. See README.md for the workloads and metric definitions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// The fixed world every workload runs against: riskrouted's default world.
// The workload seed never reaches it.
const (
	worldBlocks     = 20000
	worldEventScale = 0.2
	worldSeed       = 1
)

// workloads lists the workload names in BENCHMARK.json order.
var workloads = []string{"route-cold", "route-hot", "route-mixed", "ensemble"}

// metricDef names one reported metric and its unit, as BENCHMARK.json does.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// e2eMetrics are printed on every run and form the JSON metrics at
// --trace 0. Every workload defines each of them (README.md). p99_us is
// printed too but left out: it sits on the steep part of the latency tail
// and swings past any allowed bound when the host slows for a while.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"rss_mb", "MiB"},
}

// layerMetrics form the JSON metrics at --trace 1. A layer a workload never
// calls reports 0.
var layerMetrics = []metricDef{
	{"snapshot.load_ms", "ms"},
	{"serve.new_ms", "ms"},
	{"serve.handler_us.p50", "us"},
	{"serve.handler_us.p99", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.resp_bytes", "bytes"},
	{"serve.apply_advisory_ms", "ms"},
	{"serve.advisory_post_ms.p50", "ms"},
	{"edge.overhead_us.p50", "us"},
	{"runtime.mallocs_per_req", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"core.riskroute_pair_us", "us"},
	{"core.shortest_pair_us", "us"},
	{"core.allocs_per_pair", "count"},
	{"core.new_us", "us"},
	{"core.explain_us", "us"},
	{"risk.weighted_graph_us", "us"},
	{"graph.shortest_path_us", "us"},
	{"forecast.parse_us", "us"},
	{"forecast.pop_risks_us", "us"},
	{"hazard.fit_ms", "ms"},
	{"datasets.census_ms", "ms"},
	{"population.assign_ms", "ms"},
	{"scenario.generate_ms", "ms"},
	{"scenario.compile_us", "us"},
	{"scenario.sweep_ms", "ms"},
	{"scenario.allocs_per_scenario", "count"},
}

type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        bool
	daemon       string        // riskrouted binary
	out          string        // directory for the baked world, traces and results
	readyTimeout time.Duration // how long a booting daemon may take to answer /v1/readyz
	boots        int           // daemon boots (route-*) or world builds (ensemble) behind setup_s
	replay       int           // requests replayed by the traced run
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &options{}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: route-cold, route-hot, route-mixed or ensemble")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: drives the generated queries and ensemble seeds, never the world")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics; 1 also runs the traced replay and reports per-layer metrics")
	fs.StringVar(&o.daemon, "daemon", "", "path of the riskrouted binary (route workloads)")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for the baked world, traces and result records")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if !slices.Contains(workloads, o.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	if o.workload != "ensemble" && o.daemon == "" {
		return nil, fmt.Errorf("route workloads need --daemon (the riskrouted binary)")
	}
	// Daemon boots are cheap (~25 ms) and noisy, world builds ~250 ms.
	o.boots = 21
	if o.workload == "ensemble" {
		o.boots = 3
	}
	o.readyTimeout = 60 * time.Second
	o.replay = 3000
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, o, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed")
		os.Exit(1)
	}
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envRecord is the environment and load shape recorded with every result.
type envRecord struct {
	Workload       string  `json:"workload"`
	WorkloadSeed   uint64  `json:"workload_seed"`
	Seconds        float64 `json:"seconds"`
	Trace          bool    `json:"trace"`
	NProc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	Link           string  `json:"link"`
	Clients        int     `json:"clients"`
	Writers        int     `json:"writers"`
	Loop           string  `json:"loop"`
	WorldBlocks    int     `json:"world_blocks"`
	WorldScale     float64 `json:"world_event_scale"`
	WorldSeed      int     `json:"world_seed"`
	WorldNetworks  int     `json:"world_networks"`
	SnapshotDigest string  `json:"snapshot_digest,omitempty"`
	QueryDigest    string  `json:"query_digest"`
}

// report is what a workload run measured.
type report struct {
	env       envRecord
	attempted int64
	failed    int64
	mismatch  int64              // correctness mismatches (also counted in failed)
	values    map[string]float64 // metric name -> value
	notes     map[string]string  // metric name -> sample count and definition
	extra     []string           // additional human-readable lines
}

func newReport(o *options) *report {
	return &report{
		env: envRecord{
			Workload:      o.workload,
			WorkloadSeed:  o.seed,
			Seconds:       o.seconds,
			Trace:         o.trace,
			NProc:         runtime.NumCPU(),
			GOMAXPROCS:    runtime.GOMAXPROCS(0),
			GoVersion:     runtime.Version(),
			WorldBlocks:   worldBlocks,
			WorldScale:    worldEventScale,
			WorldSeed:     worldSeed,
			WorldNetworks: 23,
		},
		values: map[string]float64{},
		notes:  map[string]string{},
	}
}

func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

func run(ctx context.Context, o *options, w io.Writer) (*result, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	var (
		rep *report
		err error
	)
	if o.workload == "ensemble" {
		rep, err = runEnsemble(ctx, o)
	} else {
		rep, err = runRoute(ctx, o)
	}
	if err != nil {
		return nil, err
	}

	env, err := json.Marshal(rep.env)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "env %s\n", env)
	for _, line := range rep.extra {
		fmt.Fprintln(w, line)
	}
	ratio := 0.0
	if rep.attempted > 0 {
		ratio = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "metric error_ratio = %g ratio (%d failed of %d attempted, %d correctness mismatches)\n",
		ratio, rep.failed, rep.attempted, rep.mismatch)

	res := &result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	emit := func(defs []metricDef, into bool) error {
		for _, d := range defs {
			v, ok := rep.values[d.Name]
			if !ok {
				return fmt.Errorf("workload %s did not measure %s", o.workload, d.Name)
			}
			line := fmt.Sprintf("metric %s = %.6g %s", d.Name, v, d.Unit)
			if n := rep.notes[d.Name]; n != "" {
				line += " (" + n + ")"
			}
			fmt.Fprintln(w, line)
			if into {
				res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
			}
		}
		return nil
	}
	if err := emit(e2eMetrics, !o.trace); err != nil {
		return nil, err
	}
	if o.trace {
		if err := emit(layerMetrics, true); err != nil {
			return nil, err
		}
	}
	if err := writeRecord(o, rep, res); err != nil {
		return nil, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res, nil
}

// writeRecord keeps the environment next to the result under
// <out>/results/, one file per workload, seed and trace mode.
func writeRecord(o *options, rep *report, res *result) error {
	dir := filepath.Join(o.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := struct {
		Env    envRecord         `json:"env"`
		Notes  map[string]string `json:"notes"`
		Result *result           `json:"result"`
	}{rep.env, rep.notes, res}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// errStopped reports an interrupted run.
var errStopped = errors.New("interrupted")
