package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden stdout fixtures pin the exact bytes of every world-building
// invocation whose output carries no timings or temporary paths, so a
// change that shifts a single digit of a route cost fails loudly instead of
// slipping past the substring checks. Regenerate with:
//
//	go test ./cmd/riskroute -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden fixtures")

// checkGolden compares got with testdata/golden/<name>.txt byte for byte
// (or rewrites the fixture under -update-golden).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stdout drifted from %s;\nif intentional, regenerate with -update-golden\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// runGolden runs the CLI, checks its stdout against the named golden
// fixture, and returns it for the caller's own assertions.
func runGolden(t *testing.T, name string, args ...string) string {
	t.Helper()
	out := runStdout(t, args...)
	checkGolden(t, name, out)
	return string(out)
}

// TestCLIGoldenWorlds pins the world-building subcommands no other test
// runs: the storm replay and the interdomain ratio over the peering mesh.
func TestCLIGoldenWorlds(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"replay", []string{"replay", "-network", "Abilene", "-storm", "Sandy", "-stride", "10"}},
		{"ratios_interdomain", []string{"ratios", "-interdomain", "-network", "Telepak"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runGolden(t, tc.name, append(tc.args, tiny...)...)
		})
	}
}

// TestCLIBakeDigest pins the snapshot digest of a small bake: the digest
// covers every persisted float bit, so it moves if any stage of the world
// pipeline does. The baked world then boots `stats -world-snapshot` to the
// same sweep a fresh fit gives.
func TestCLIBakeDigest(t *testing.T) {
	out := filepath.Join(t.TempDir(), "world.rrws")
	stdout := string(runStdout(t, append([]string{"bake", "-o", out, "-networks", "Sprint,Tinet"}, tiny...)...))
	digest := ""
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "digest ") {
			digest = strings.TrimSpace(line)
		}
	}
	if digest == "" {
		t.Fatalf("bake output has no digest line:\n%s", stdout)
	}
	checkGolden(t, "bake_digest", []byte(digest+"\n"))

	sweep := func(args ...string) map[string]any {
		t.Helper()
		var rep telReport
		if err := json.Unmarshal(runStdout(t, append(append([]string{"stats", "-network", "Tinet"}, args...), tiny...)...), &rep); err != nil {
			t.Fatal(err)
		}
		return rep.Trace.Attrs
	}
	snap, fit := sweep("-world-snapshot", out), sweep()
	if snap["boot_path"] != "snapshot" || fit["boot_path"] != "fit" {
		t.Fatalf("boot paths %v / %v, want snapshot / fit", snap["boot_path"], fit["boot_path"])
	}
	if snap["risk_reduction"] != fit["risk_reduction"] || snap["pairs"] != fit["pairs"] {
		t.Fatalf("snapshot boot swept %v pairs to %v, fit %v pairs to %v",
			snap["pairs"], snap["risk_reduction"], fit["pairs"], fit["risk_reduction"])
	}
}
