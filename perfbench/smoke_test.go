package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"riskroute"
)

// daemonBin is the riskrouted binary built once for the smoke tests.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-smoke")
	if err != nil {
		panic(err)
	}
	daemonBin = filepath.Join(dir, "riskrouted")
	build := exec.Command("go", "build", "-o", daemonBin, "riskroute/cmd/riskrouted")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic("building riskrouted: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkSpec is the part of ../BENCHMARK.json the harness must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyRun runs one workload at a tiny run length and returns its stdout and
// result.
func tinyRun(t *testing.T, workload string, seed uint64, trace bool, daemon string) (string, *result, error) {
	t.Helper()
	o := &options{
		workload:     workload,
		seed:         seed,
		seconds:      0.3,
		trace:        trace,
		daemon:       daemon,
		out:          t.TempDir(),
		readyTimeout: 20 * time.Second,
		boots:        2,
		replay:       60,
	}
	var out bytes.Buffer
	res, err := run(context.Background(), o, &out)
	return out.String(), res, err
}

// liveDaemons lists running processes executing the smoke tests' riskrouted.
func liveDaemons(t *testing.T) []string {
	t.Helper()
	procs, err := filepath.Glob("/proc/[0-9]*/exe")
	if err != nil {
		t.Fatal(err)
	}
	var live []string
	for _, p := range procs {
		if exe, err := os.Readlink(p); err == nil && exe == daemonBin {
			live = append(live, p)
		}
	}
	return live
}

// TestSmokeMetrics runs every workload with and without tracing and checks
// that every metric BENCHMARK.json names is printed with its unit, and that
// the JSON result carries exactly the end-to-end or per-layer set.
func TestSmokeMetrics(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			out, res, err := tinyRun(t, w.Name, 3, trace, daemonBin)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, trace, err, out)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: result %+v\n%s", w.Name, trace, res, out)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: result metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
			// p99_us and error_ratio are printed on every run without a bound.
			printed := append([]metricDef{{Name: "p99_us"}, {Name: "error_ratio"}}, spec.EndToEnd...)
			if trace {
				printed = append(printed, spec.PerLayer...)
			}
			for _, m := range printed {
				if !strings.Contains(out, "metric "+m.Name+" = ") {
					t.Errorf("%s trace=%v: %s not printed", w.Name, trace, m.Name)
				}
			}
			for _, m := range spec.EndToEnd {
				if v := res.Metrics[m.Name].Value; !trace && v <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, m.Name, v)
				}
			}
			last := strings.TrimSpace(out[strings.LastIndex(strings.TrimSpace(out), "\n")+1:])
			if !strings.HasPrefix(last, `{"correct":true`) {
				t.Errorf("%s trace=%v: last line %q is not the result", w.Name, trace, last)
			}
		}
	}
	if live := liveDaemons(t); len(live) > 0 {
		t.Errorf("riskrouted outlived the benchmark: %v", live)
	}
}

// TestSmokeSeed checks that the workload seed changes the generated queries
// but not the world the daemon serves.
func TestSmokeSeed(t *testing.T) {
	nets := riskroute.BuiltinNetworks()
	for _, w := range []string{"route-cold", "route-hot", "route-mixed"} {
		a, b := genQueries(w, 1, nets), genQueries(w, 2, nets)
		if digestQueries(a.timed) == digestQueries(b.timed) {
			t.Errorf("%s: seeds 1 and 2 generated the same queries", w)
		}
		if again := genQueries(w, 1, nets); digestQueries(again.timed) != digestQueries(a.timed) {
			t.Errorf("%s: seed 1 generated different queries twice", w)
		}
	}
	envOf := func(seed uint64) envRecord {
		out, _, err := tinyRun(t, "route-hot", seed, false, daemonBin)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, out)
		}
		for _, line := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(line, "env "); ok {
				var env envRecord
				if err := json.Unmarshal([]byte(rest), &env); err != nil {
					t.Fatal(err)
				}
				return env
			}
		}
		t.Fatalf("no env line in\n%s", out)
		return envRecord{}
	}
	e1, e2 := envOf(1), envOf(2)
	if e1.SnapshotDigest == "" || e1.SnapshotDigest != e2.SnapshotDigest {
		t.Errorf("world changed with the workload seed: %q vs %q", e1.SnapshotDigest, e2.SnapshotDigest)
	}
	if e1.QueryDigest == e2.QueryDigest || e1.WorkloadSeed != 1 || e2.WorkloadSeed != 2 {
		t.Errorf("queries or recorded seed did not follow the workload seed: %+v vs %+v", e1, e2)
	}
}

// TestSmokeNeverReady checks that a daemon which never becomes ready fails
// the run cleanly, within the readiness timeout, and is not left running.
func TestSmokeNeverReady(t *testing.T) {
	dir := t.TempDir()
	for name, script := range map[string]string{
		// Never prints its listen address.
		"silent": "echo $$ > " + dir + "/silent.pid\nexec sleep 60\n",
		// Claims an address nothing listens on, so /v1/readyz never answers.
		"deaf": "echo $$ > " + dir + "/deaf.pid\necho 'riskrouted: listening on http://127.0.0.1:9 (generation 1)'\nexec sleep 60\n",
	} {
		bin := filepath.Join(dir, name)
		if err := os.WriteFile(bin, []byte("#!/bin/sh\n"+script), 0o755); err != nil {
			t.Fatal(err)
		}
		o := &options{workload: "route-hot", seed: 1, seconds: 0.3, daemon: bin, out: t.TempDir(),
			readyTimeout: time.Second, boots: 1, replay: 10}
		start := time.Now()
		var out bytes.Buffer
		res, err := run(context.Background(), o, &out)
		if err == nil || res != nil {
			t.Fatalf("%s: run succeeded with a daemon that never became ready: %+v", name, res)
		}
		if strings.Contains(out.String(), `{"correct"`) {
			t.Errorf("%s: a result was printed despite the failure", name)
		}
		if took := time.Since(start); took > 30*time.Second {
			t.Errorf("%s: failing took %v", name, took)
		}
		pid, err := os.ReadFile(filepath.Join(dir, name+".pid"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat("/proc/" + strings.TrimSpace(string(pid))); err == nil {
			t.Errorf("%s: daemon process %s still running after the failed run", name, strings.TrimSpace(string(pid)))
		}
	}
}

// TestSmokeWrongDaemon checks that the correctness check catches a daemon
// serving a different world, and that the daemon is stopped on that error
// path too.
func TestSmokeWrongDaemon(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "wrong-world")
	script := "#!/bin/sh\nexec " + daemonBin + " \"$@\" -seed 2\n"
	if err := os.WriteFile(bin, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	out, res, err := tinyRun(t, "route-cold", 1, false, bin)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if res.Correct || res.Failed == 0 || !strings.Contains(out, "first mismatch") {
		t.Errorf("a daemon serving another world passed the check: %+v\n%s", res, out)
	}
	if live := liveDaemons(t); len(live) > 0 {
		t.Errorf("riskrouted outlived the failed benchmark: %v", live)
	}
}

// TestRunScriptWithoutSources checks that run.sh, started in a checkout that
// holds only the benchmark, fails without printing a result and before any go
// command could leave a toolchain helper process behind.
func TestRunScriptWithoutSources(t *testing.T) {
	dir := t.TempDir()
	script, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "perfbench", "run.sh"), script, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("sh", "perfbench/run.sh", "--workload", "route-cold", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("run.sh succeeded without the program's sources:\n%s", out)
	}
	if strings.Contains(string(out), `{"correct"`) {
		t.Errorf("a result was printed without the program's sources:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, ".bench_build")); err == nil {
		t.Errorf("run.sh got as far as preparing a build without the program's sources")
	}
}
