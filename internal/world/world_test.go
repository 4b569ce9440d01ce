package world

import (
	"errors"
	"io"
	"math"
	"sync"
	"testing"

	"riskroute/internal/datasets"
	"riskroute/internal/snapshot"
	"riskroute/internal/topology"
)

// tinyConfig is a reduced world (the CLI test suite's -blocks 4000
// -event-scale 0.03) over two networks.
func tinyConfig(workers int) Config {
	return Config{
		Networks: []*topology.Network{
			datasets.NetworkByName("Sprint"),
			datasets.NetworkByName("Abilene"),
		},
		Blocks:     4000,
		EventScale: 0.03,
		Seed:       1,
		Workers:    workers,
	}
}

func fitTiny(t *testing.T, workers int) *World {
	t.Helper()
	w, err := Fit(tinyConfig(workers))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v (bit-exact)", what, i, got[i], want[i])
		}
	}
}

func digest(t *testing.T, w *World) string {
	t.Helper()
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d, err := snapshot.Write(io.Discard, snap)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	fitted := fitTiny(t, 0)
	snap, err := fitted.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(tinyConfig(0), snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Networks) != len(fitted.Networks) {
		t.Fatalf("%d restored networks, want %d", len(restored.Networks), len(fitted.Networks))
	}
	for i, want := range fitted.Networks {
		got := restored.Networks[i]
		name := want.Net.Name
		sameBits(t, name+" hist", got.Hist, want.Hist)
		sameBits(t, name+" fractions", got.Assignment.Fractions, want.Assignment.Fractions)
		sameBits(t, name+" served", got.Assignment.Served, want.Assignment.Served)
		for j, p := range want.Net.PoPs {
			if a, b := restored.Model.RiskAt(p.Location), fitted.Model.RiskAt(p.Location); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s PoP %d RiskAt %v, fitted %v", name, j, a, b)
			}
		}
	}
	if restored.Census.Total() != fitted.Census.Total() {
		t.Fatalf("restored census total %v, fitted %v", restored.Census.Total(), fitted.Census.Total())
	}
	if a, b := digest(t, restored), digest(t, fitted); a != b {
		t.Fatalf("re-baked restored world digest %s, fitted %s", a, b)
	}
}

func TestRestoreDrift(t *testing.T) {
	snap, err := fitTiny(t, 0).Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cfg := tinyConfig(0)
	cfg.Blocks = 5000
	if _, err := Restore(cfg, snap); !errors.Is(err, snapshot.ErrDrift) {
		t.Errorf("config drift: err = %v, want ErrDrift", err)
	}

	moved := datasets.NetworkByName("Abilene")
	moved.PoPs[0].Location.Lat += 1e-9
	cfg = tinyConfig(0)
	cfg.Networks = []*topology.Network{cfg.Networks[0], moved}
	if _, err := Restore(cfg, snap); !errors.Is(err, snapshot.ErrDrift) {
		t.Errorf("topology drift: err = %v, want ErrDrift", err)
	}

	cfg = tinyConfig(0)
	cfg.Networks = append(cfg.Networks, datasets.NetworkByName("Tinet"))
	if _, err := Restore(cfg, snap); !errors.Is(err, snapshot.ErrDrift) {
		t.Errorf("network missing from snapshot: err = %v, want ErrDrift", err)
	}
}

func TestFitWorkerInvariance(t *testing.T) {
	if a, b := digest(t, fitTiny(t, 1)), digest(t, fitTiny(t, 8)); a != b {
		t.Fatalf("workers=1 digest %s, workers=8 digest %s", a, b)
	}
}

func TestNetworkMemo(t *testing.T) {
	w := fitTiny(t, 0)
	if st, err := w.Network(datasets.NetworkByName("Sprint")); err != nil || st != w.Networks[0] {
		t.Fatalf("configured network not answered from Fit's state: %p vs %p (%v)", st, w.Networks[0], err)
	}

	tinet := datasets.NetworkByName("Tinet")
	const callers = 16
	got := make([]*NetworkState, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := w.Network(tinet)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = st
		}(i)
	}
	wg.Wait()
	for i, st := range got {
		if st != got[0] || &st.Hist[0] != &got[0].Hist[0] || st.Assignment != got[0].Assignment {
			t.Fatalf("caller %d got a different state: the assignment was computed more than once", i)
		}
	}

	// The memoized state matches an eager assignment of the same network.
	cfg := tinyConfig(0)
	cfg.Networks = []*topology.Network{tinet}
	eager, err := Fit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "memo hist", got[0].Hist, eager.Networks[0].Hist)
	sameBits(t, "memo fractions", got[0].Assignment.Fractions, eager.Networks[0].Assignment.Fractions)
}
