package main

// Telemetry-facing CLI tests: the stats subcommand's machine-readable
// report, the -telemetry exit report on ordinary subcommands, and
// deterministic output checks for the outage and backup commands.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// report mirrors the JSON emitted by `riskroute stats` and `-telemetry json`.
type telReport struct {
	Trace   *spanNode `json:"trace"`
	Metrics struct {
		Counters   map[string]int64   `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Count int64   `json:"count"`
			Sum   float64 `json:"sum"`
		} `json:"histograms"`
	} `json:"metrics"`
}

type spanNode struct {
	Name       string         `json:"name"`
	DurationNS int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs"`
	Children   []*spanNode    `json:"children"`
}

func (s *spanNode) find(name string) *spanNode {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if got := c.find(name); got != nil {
			return got
		}
	}
	return nil
}

// runSplit runs the CLI capturing stdout and stderr separately — the
// telemetry report goes to stderr and must not pollute command output.
func runSplit(t *testing.T, args ...string) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(binPath, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("riskroute %s: %v\nstdout:\n%s\nstderr:\n%s",
			strings.Join(args, " "), err, stdout.String(), stderr.String())
	}
	return stdout.String(), stderr.String()
}

func TestCLIStats(t *testing.T) {
	stdout, _ := runSplit(t, append([]string{"stats"}, tiny...)...)
	var rep telReport
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("stats output is not JSON: %v\n%s", err, stdout)
	}
	if rep.Trace == nil {
		t.Fatal("stats report has no trace")
	}
	for _, stage := range []string{"parse", "fit", "engine-build", "sweep"} {
		span := rep.Trace.find(stage)
		if span == nil {
			t.Errorf("stats trace missing %q span", stage)
			continue
		}
		if span.DurationNS <= 0 {
			t.Errorf("%s span has non-positive duration %d ns", stage, span.DurationNS)
		}
	}
	if pairs := rep.Metrics.Counters["core.sweep.pairs_total"]; pairs <= 0 {
		t.Errorf("core.sweep.pairs_total = %d, want > 0", pairs)
	}
	if lines := rep.Metrics.Counters["topology.parse.lines_total"]; lines <= 0 {
		t.Errorf("topology.parse.lines_total = %d, want > 0", lines)
	}
	if h, ok := rep.Metrics.Histograms["core.engine.build_seconds"]; !ok || h.Count == 0 {
		t.Errorf("core.engine.build_seconds histogram missing or empty: %+v", h)
	}
	if _, ok := rep.Metrics.Gauges["runtime.goroutines"]; !ok {
		t.Error("report missing runtime.goroutines gauge")
	}
}

func TestCLIStatsText(t *testing.T) {
	stdout, _ := runSplit(t, append([]string{"stats", "-format", "text", "-network", "Abilene"}, tiny...)...)
	for _, want := range []string{"span", "sweep", "core.sweep.pairs_total", "hazard.fit.sources_total"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stats text report missing %q:\n%.400s", want, stdout)
		}
	}
	runExpectError(t, "stats", "-format", "yaml")
}

func TestCLITelemetryFlag(t *testing.T) {
	args := append([]string{"outage", "-storm", "Sandy", "-network", "Abilene", "-telemetry", "json"}, tiny...)
	stdout, stderr := runSplit(t, args...)
	// Command output stays on stdout, untouched by the report.
	if !strings.Contains(stdout, "failed PoPs") {
		t.Errorf("outage stdout missing command output:\n%s", stdout)
	}
	if strings.Contains(stdout, `"metrics"`) {
		t.Error("telemetry report leaked onto stdout")
	}
	var rep telReport
	if err := json.Unmarshal([]byte(stderr), &rep); err != nil {
		t.Fatalf("-telemetry json stderr is not JSON: %v\n%s", err, stderr)
	}
	if rep.Trace == nil || rep.Trace.Name != "outage" {
		t.Fatalf("root span = %+v, want name \"outage\"", rep.Trace)
	}
	// outage builds an engine but never runs the all-pairs sweep, so only
	// the fit and build stages appear.
	for _, stage := range []string{"fit", "engine-build"} {
		if span := rep.Trace.find(stage); span == nil || span.DurationNS <= 0 {
			t.Errorf("-telemetry trace missing live %q span: %+v", stage, span)
		}
	}
}

func TestCLITelemetryHealthBridge(t *testing.T) {
	// check attaches a PipelineHealth and runs a full Evaluate, so the
	// report carries the sweep span plus the bridged pipeline.* counters.
	args := append([]string{"check", "-network", "Abilene", "-telemetry", "json"}, tiny...)
	stdout, stderr := runSplit(t, args...)
	if !strings.Contains(stdout, "risk reduction") {
		t.Errorf("check stdout missing command output:\n%s", stdout)
	}
	var rep telReport
	if err := json.Unmarshal([]byte(stderr), &rep); err != nil {
		t.Fatalf("-telemetry json stderr is not JSON: %v\n%s", err, stderr)
	}
	for _, stage := range []string{"fit", "engine-build", "sweep"} {
		if span := rep.Trace.find(stage); span == nil || span.DurationNS <= 0 {
			t.Errorf("-telemetry trace missing live %q span: %+v", stage, span)
		}
	}
	if rep.Metrics.Counters["pipeline.hazard.ok_total"] <= 0 {
		t.Error("health bridge counter pipeline.hazard.ok_total not recorded")
	}
}

func TestCLITelemetryOffIsSilent(t *testing.T) {
	args := append([]string{"route", "-network", "Abilene", "-from", "Seattle", "-to", "Atlanta", "-telemetry", "off"}, tiny...)
	_, stderr := runSplit(t, args...)
	if stderr != "" {
		t.Errorf("-telemetry off still wrote to stderr:\n%s", stderr)
	}
}

// miniTopo is a three-city Gulf line with a redundant long-haul edge, small
// enough that outage and backup outputs are fully predictable.
const miniTopo = `network|MiniNet|tier1
pop|A|29.95|-90.07|LA
pop|B|32.30|-90.18|MS
pop|C|35.15|-90.05|TN
link|A|B
link|B|C
link|A|C
`

func writeMiniTopo(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mini.topo")
	if err := os.WriteFile(path, []byte(miniTopo), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLIOutageDeterministic(t *testing.T) {
	path := writeMiniTopo(t)
	args := append([]string{"outage", "-topology", path, "-network", "MiniNet", "-storm", "Katrina"}, tiny...)
	out := runGolden(t, "outage_mini", args...)
	// Katrina's hurricane-force field covers New Orleans: PoP A fails,
	// B and C survive and stay connected over the B--C link.
	for _, want := range []string{
		"MiniNet under Katrina",
		"failed PoPs:        1 of 3",
		"- A",
		"disconnected pairs: 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("outage output missing %q:\n%s", want, out)
		}
	}
	if again := run(t, args...); again != out {
		t.Error("outage output not deterministic for a fixed world seed")
	}
}

func TestCLIBackupDeterministic(t *testing.T) {
	path := writeMiniTopo(t)
	args := append([]string{"backup", "-topology", path, "-network", "MiniNet", "-from", "A", "-to", "C"}, tiny...)
	out := runGolden(t, "backup_mini", args...)
	if !strings.Contains(out, "fast-reroute plan, MiniNet: A -> C") {
		t.Errorf("backup header:\n%s", out)
	}
	// The triangle always leaves a detour: no single link failure may
	// disconnect the pair.
	if strings.Contains(out, "DISCONNECTED") {
		t.Errorf("triangle topology reported a disconnection:\n%s", out)
	}
	if strings.Count(out, "if ") < 1 {
		t.Errorf("backup lists no failure cases:\n%s", out)
	}
	if again := run(t, args...); again != out {
		t.Error("backup output not deterministic for a fixed world seed")
	}
}

func TestCLIStructuredLogJSON(t *testing.T) {
	path := writeMiniTopo(t)
	args := append([]string{"outage", "-topology", path, "-network", "MiniNet", "-storm", "Katrina", "-log", "json"}, tiny...)
	stdout, stderr := runSplit(t, args...)
	if !strings.Contains(stdout, "failed PoPs") {
		t.Errorf("command output disturbed by -log:\n%s", stdout)
	}
	// Every stderr line is one slog JSON record.
	sawBuild := false
	for _, line := range strings.Split(strings.TrimSpace(stderr), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %v: %q", err, line)
		}
		if rec["level"] == nil || rec["msg"] == nil || rec["time"] == nil {
			t.Fatalf("log record missing slog keys: %v", rec)
		}
		if rec["msg"] == "engine built" {
			sawBuild = true
			if rec["network"] != "MiniNet" {
				t.Errorf("engine built record = %v", rec)
			}
		}
	}
	if !sawBuild {
		t.Errorf("no \"engine built\" record in log stream:\n%s", stderr)
	}
}

func TestCLIStructuredLogText(t *testing.T) {
	path := writeMiniTopo(t)
	args := append([]string{"outage", "-topology", path, "-network", "MiniNet", "-storm", "Katrina", "-log", "text"}, tiny...)
	_, stderr := runSplit(t, args...)
	for _, want := range []string{"level=INFO", "msg=", "engine built"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("-log text stderr missing %q:\n%s", want, stderr)
		}
	}
	runExpectError(t, "networks", "-log", "yaml")
}

func TestCLITraceOut(t *testing.T) {
	topo := writeMiniTopo(t)
	out := filepath.Join(t.TempDir(), "trace.json")
	args := append([]string{"outage", "-topology", topo, "-network", "MiniNet", "-storm", "Katrina", "-trace-out", out}, tiny...)
	_, stderr := runSplit(t, args...)
	if !strings.Contains(stderr, "wrote trace to "+out) {
		t.Errorf("missing trace confirmation on stderr:\n%s", stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("-trace-out file is not Chrome trace JSON: %v", err)
	}
	if len(tr.TraceEvents) < 3 {
		t.Fatalf("trace has %d events, want metadata + spans", len(tr.TraceEvents))
	}
	if tr.TraceEvents[0].Phase != "M" {
		t.Errorf("first event phase = %q, want metadata", tr.TraceEvents[0].Phase)
	}
	names := map[string]bool{}
	for _, e := range tr.TraceEvents[1:] {
		if e.Phase != "X" {
			t.Errorf("span phase = %q, want X", e.Phase)
		}
		names[e.Name] = true
	}
	for _, want := range []string{"outage", "fit", "engine-build"} {
		if !names[want] {
			t.Errorf("trace missing %q span; have %v", want, names)
		}
	}
}

// readOnlyManifest finds the single run directory under root and returns the
// raw manifest bytes.
func readOnlyManifest(t *testing.T, root string) []byte {
	t.Helper()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("runs dir has %d entries, want 1", len(entries))
	}
	data, err := os.ReadFile(filepath.Join(root, entries[0].Name(), "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCLIRunManifestDeterministic(t *testing.T) {
	topo := writeMiniTopo(t)
	runOnce := func() (string, []byte) {
		root := t.TempDir()
		args := append([]string{"outage", "-topology", topo, "-network", "MiniNet", "-storm", "Katrina", "-runs", root}, tiny...)
		_, stderr := runSplit(t, args...)
		if !strings.Contains(stderr, "wrote run manifest") {
			t.Errorf("missing manifest confirmation on stderr:\n%s", stderr)
		}
		return root, readOnlyManifest(t, root)
	}
	root1, d1 := runOnce()
	_, d2 := runOnce()

	section := func(data []byte, key string) string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("manifest not JSON: %v", err)
		}
		return string(m[key])
	}
	// Identical inputs: config and input checksums byte-equal, identity fresh.
	if section(d1, "config") != section(d2, "config") {
		t.Errorf("config sections differ:\n%s\nvs\n%s", section(d1, "config"), section(d2, "config"))
	}
	if section(d1, "inputs") != section(d2, "inputs") {
		t.Errorf("inputs sections differ:\n%s\nvs\n%s", section(d1, "inputs"), section(d2, "inputs"))
	}
	if section(d1, "run_id") == section(d2, "run_id") {
		t.Error("distinct runs share a run_id")
	}

	var m struct {
		Command string         `json:"command"`
		Status  string         `json:"status"`
		Config  map[string]any `json:"config"`
		Inputs  []struct {
			Name   string `json:"name"`
			SHA256 string `json:"sha256"`
			Bytes  int64  `json:"bytes"`
		} `json:"inputs"`
		Stages []struct {
			Stage string `json:"stage"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(d1, &m); err != nil {
		t.Fatal(err)
	}
	if m.Command != "outage" || m.Status != "ok" {
		t.Errorf("manifest header: command=%q status=%q", m.Command, m.Status)
	}
	if m.Config["storm"] != "Katrina" || m.Config["network"] != "MiniNet" {
		t.Errorf("config missing command flags: %v", m.Config)
	}
	if _, leaked := m.Config["runs"]; leaked {
		t.Error("observability flag leaked into the config section")
	}
	if len(m.Inputs) == 0 || len(m.Inputs[0].SHA256) != 64 || m.Inputs[0].Bytes <= 0 {
		t.Errorf("inputs = %+v", m.Inputs)
	}
	if len(m.Stages) == 0 {
		t.Error("manifest has no stage timings")
	}
	// Healthy run: no flight dump.
	entries, _ := os.ReadDir(root1)
	if _, err := os.Stat(filepath.Join(root1, entries[0].Name(), "flight.log")); !os.IsNotExist(err) {
		t.Error("flight.log written for a successful run")
	}
}

func TestCLIRunManifestFailure(t *testing.T) {
	topo := writeMiniTopo(t)
	root := t.TempDir()
	args := append([]string{"route", "-topology", topo, "-network", "MiniNet", "-from", "A", "-to", "Nowhere", "-runs", root}, tiny...)
	runExpectError(t, args...)
	data := readOnlyManifest(t, root)
	var m struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Status != "error" || m.Error == "" {
		t.Fatalf("failed run manifest: status=%q error=%q", m.Status, m.Error)
	}
	entries, _ := os.ReadDir(root)
	if _, err := os.Stat(filepath.Join(root, entries[0].Name(), "flight.log")); err != nil {
		t.Errorf("failed run should dump flight.log: %v", err)
	}
}
