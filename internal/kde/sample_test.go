package kde

import (
	"math"
	"testing"

	"riskroute/internal/geo"
)

// TestSampleMatchesAt pins the probe contract: Sample's interpolated value
// is bit-identical to At at interior, boundary, and out-of-grid points, and
// the stencil it reports actually reconstructs the value.
func TestSampleMatchesAt(t *testing.T) {
	events := []geo.Point{
		{Lat: 30, Lon: -90}, {Lat: 32, Lon: -88}, {Lat: 29.5, Lon: -92.2},
		{Lat: 35, Lon: -85}, {Lat: 31.1, Lon: -89.7},
	}
	est := New(events, 80)
	grid := geo.NewGrid(geo.Bounds{MinLat: 25, MaxLat: 40, MinLon: -100, MaxLon: -75}, 40, 60)
	f := Rasterize(est, grid, 5)

	probes := []geo.Point{
		{Lat: 30, Lon: -90},      // on an event
		{Lat: 31.37, Lon: -88.9}, // interior, off-center
		{Lat: 25, Lon: -100},     // grid corner
		{Lat: 24, Lon: -101},     // outside: clamps
		{Lat: 41, Lon: -74},      // outside the other corner
		{Lat: 33.333, Lon: -99.999},
	}
	for _, p := range probes {
		s := f.Sample(p)
		if math.Float64bits(s.Value) != math.Float64bits(f.At(p)) {
			t.Fatalf("probe %v: Sample %v != At %v", p, s.Value, f.At(p))
		}
		wsum := 0.0
		for _, c := range s.Cells {
			wsum += c.Weight
			if c.Row < 0 || c.Row >= grid.Rows || c.Col < 0 || c.Col >= grid.Cols {
				t.Fatalf("probe %v: stencil cell (%d,%d) outside grid", p, c.Row, c.Col)
			}
			if c.Value != f.Values[grid.Index(c.Row, c.Col)] {
				t.Fatalf("probe %v: stencil value mismatch at (%d,%d)", p, c.Row, c.Col)
			}
		}
		if math.Abs(wsum-1) > 1e-12 {
			t.Fatalf("probe %v: stencil weights sum to %v", p, wsum)
		}
	}
}
