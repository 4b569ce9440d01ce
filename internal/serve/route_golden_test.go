package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"

	"riskroute/internal/datasets"
	"riskroute/internal/forecast"
	"riskroute/internal/obs"
	"riskroute/internal/topology"
)

const goldenRoutePath = "testdata/route_golden.txt"

// TestRouteGoldenBodies pins exact /v1/route response bytes — indentation,
// field order and every float's formatting — over a fixed request script:
// default and overridden λ (route-mixed's lambda_h set), a cache miss then a
// hit, explain=1 at an overridden λ, and all of it again after swapping in
// the Sandy advisory that puts forecast risk on the most PoPs (its peak-wind
// advisory, over Cuba, puts it on none). The parity tests decode bodies, so
// only this test sees the encoding itself. Regenerate with:
//
//	go test ./internal/serve -run RouteGolden -update-golden
func TestRouteGoldenBodies(t *testing.T) {
	s, err := New(Config{
		Networks: []*topology.Network{
			datasets.NetworkByName("Sprint"), datasets.NetworkByName("Level3"),
		},
		Blocks:     4000,
		EventScale: 0.03,
		Seed:       1,
		Metrics:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	level3 := datasets.NetworkByName("Level3")
	type pair struct{ network, from, to string }
	pairs := []pair{
		{"Sprint", "Atlanta", "Seattle"},
		{"Sprint", "Miami", "Boston"},
		{"Sprint", "New York", "Washington"},
		{"Level3", level3.PoPs[0].Name, level3.PoPs[len(level3.PoPs)-1].Name},
	}
	query := func(p pair, extra ...string) string {
		v := url.Values{"network": {p.network}, "from": {p.from}, "to": {p.to}}
		for i := 0; i+1 < len(extra); i += 2 {
			v.Set(extra[i], extra[i+1])
		}
		return "/v1/route?" + v.Encode()
	}

	var out bytes.Buffer
	do := func(target string) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		fmt.Fprintf(&out, "### GET %s -> %d\n", target, rec.Code)
		out.Write(rec.Body.Bytes())
	}
	script := func() {
		for _, p := range pairs {
			do(query(p)) // miss
			do(query(p)) // hit
			for _, lh := range []string{"2e4", "5e4", "2e5"} {
				do(query(p, "lambda_h", lh))
			}
		}
		do(query(pairs[0], "lambda_h", "2e5", "explain", "1"))
		do(query(pairs[1], "lambda_h", "5e4", "explain", "1"))
	}

	script()
	var landfall *forecast.Advisory
	mostHit := 0
	for _, a := range sandyReplay(t).Advisories {
		hit := 0
		for _, st := range s.snap.Load().states {
			for _, v := range s.rm.PoPRisks(a, st.Net) {
				if v > 0 {
					hit++
				}
			}
		}
		if hit > mostHit {
			landfall, mostHit = a, hit
		}
	}
	if landfall == nil {
		t.Fatal("no Sandy advisory puts forecast risk on a served PoP")
	}
	if _, gen, err := s.ApplyAdvisory(landfall.Text()); err != nil || gen != 2 {
		t.Fatalf("ApplyAdvisory: generation %d, %v", gen, err)
	}
	fmt.Fprintf(&out, "### POST /v1/advisory (Sandy advisory %d, forecast risk on %d PoPs) -> generation 2\n",
		landfall.Number, mostHit)
	script()

	got := out.Bytes()
	if *updateGolden {
		if err := os.WriteFile(goldenRoutePath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenRoutePath, len(got))
		return
	}
	want, err := os.ReadFile(goldenRoutePath)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("route bodies drifted from %s at line %d:\ngot:  %s\nwant: %s\n"+
					"if intentional, regenerate with -update-golden", goldenRoutePath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("route bodies drifted from %s: %d lines, want %d", goldenRoutePath, len(gl), len(wl))
	}
}
