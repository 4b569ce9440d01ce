package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runEnsemble runs the CLI via the shared runStdout helper, returning
// stdout as a string for byte-parity comparison.
func runEnsemble(t *testing.T, args ...string) string {
	t.Helper()
	return string(runStdout(t, args...))
}

var ensembleArgs = []string{
	"ensemble", "-networks", "Telepak,NTS", "-seed", "7",
	"-scenarios", "track=5,genesis=4,cut=6,disk=5,regional=5",
	"-route-pairs", "3",
}

// TestCLIEnsembleDeterministic pins the acceptance contract: the same seed
// produces byte-identical reports across runs and at any worker count.
func TestCLIEnsembleDeterministic(t *testing.T) {
	base := runGolden(t, "ensemble", append(append([]string{}, ensembleArgs...), tiny...)...)
	again := runEnsemble(t, append(append([]string{}, ensembleArgs...), tiny...)...)
	if base != again {
		t.Fatal("same seed produced different ensemble reports")
	}
	for _, workers := range []string{"1", "3"} {
		out := runEnsemble(t, append(append([]string{}, ensembleArgs...), append(tiny, "-workers", workers)...)...)
		if out != base {
			t.Fatalf("-workers %s changed the report bytes", workers)
		}
	}

	var rep struct {
		Seed      uint64 `json:"seed"`
		Scenarios int    `json:"scenarios"`
		Families  []struct {
			Family string `json:"family"`
			Count  int    `json:"count"`
		} `json:"families"`
		SharedConduitLinks *struct {
			Count int `json:"count"`
		} `json:"shared_conduit_links"`
		Networks []struct {
			Network  string `json:"network"`
			Families []struct {
				Family string `json:"family"`
			} `json:"families"`
		} `json:"networks"`
	}
	if err := json.Unmarshal([]byte(base), &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if rep.Seed != 7 || rep.Scenarios != 25 {
		t.Errorf("seed=%d scenarios=%d, want 7/25", rep.Seed, rep.Scenarios)
	}
	if len(rep.Families) != 5 {
		t.Errorf("%d families reported, want 5", len(rep.Families))
	}
	if len(rep.Networks) != 2 || rep.Networks[0].Network != "Telepak" {
		t.Errorf("networks: %+v", rep.Networks)
	}
	if rep.SharedConduitLinks == nil || rep.SharedConduitLinks.Count != 5 {
		t.Error("regional family swept but shared-conduit distribution missing or wrong size")
	}

	// A different seed must change the report.
	other := runEnsemble(t, append([]string{"ensemble", "-networks", "Telepak,NTS", "-seed", "8",
		"-scenarios", "track=5,genesis=4,cut=6,disk=5,regional=5", "-route-pairs", "3"}, tiny...)...)
	if other == base {
		t.Error("different seeds produced identical reports")
	}
}

// TestCLIEnsembleManifest checks the run ledger records the ensemble seed
// and scenario composition.
func TestCLIEnsembleManifest(t *testing.T) {
	dir := t.TempDir()
	runEnsemble(t, append(append([]string{}, ensembleArgs...), append(tiny, "-runs", dir)...)...)
	matches, err := filepath.Glob(filepath.Join(dir, "*", "manifest.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("manifest glob: %v, %v", matches, err)
	}
	buf, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	manifest := string(buf)
	for _, want := range []string{
		`"seed": "7"`, `"ensemble-seed": 7`,
		`"ensemble-scenarios": "track=5,genesis=4,cut=6,disk=5,regional=5"`,
		`"ensemble-count": 25`,
	} {
		if !strings.Contains(manifest, want) {
			t.Errorf("manifest missing %s:\n%s", want, manifest)
		}
	}
}

func TestCLIEnsembleRejectsSpanRisk(t *testing.T) {
	out := runExpectError(t, append([]string{"ensemble", "-span-risk"}, tiny...)...)
	if !strings.Contains(out, "span-risk") {
		t.Errorf("span-risk rejection message: %s", out)
	}
}

func TestCLIEnsembleBadSpec(t *testing.T) {
	runExpectError(t, append([]string{"ensemble", "-scenarios", "storm=5"}, tiny...)...)
	runExpectError(t, append([]string{"ensemble", "-storm", "Bob"}, tiny...)...)
}
