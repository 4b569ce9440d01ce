package geo

import (
	"math"
	"testing"
)

// FuzzEquirectGuard hammers the EquirectOK contract: for any point pair
// inside the envelope — latitudes within ±EquirectMaxLat, separation at most
// EquirectMaxRadiusMiles, longitude difference numeric (no antimeridian
// wrap) — EquirectDistance must agree with Distance to EquirectTolMiles.
// The seed corpus covers the envelope's worst corners (high latitude at the
// full radius, pure east-west and north-south separations).
func FuzzEquirectGuard(f *testing.F) {
	f.Add(52.0, -95.0, 51.9, -89.1)   // near max lat, near max radius, mostly E-W
	f.Add(-52.0, 10.0, -48.3, 10.0)   // southern hemisphere, pure N-S
	f.Add(0.0, 179.0, 0.5, 179.9)     // near (but not across) the antimeridian
	f.Add(40.0, -100.0, 40.0, -100.0) // identical points
	f.Fuzz(func(t *testing.T, lat1, lon1, lat2, lon2 float64) {
		a := Point{Lat: lat1, Lon: lon1}
		b := Point{Lat: lat2, Lon: lon2}
		if !a.Valid() || !b.Valid() {
			t.Skip()
		}
		if math.Abs(lat1) > EquirectMaxLat || math.Abs(lat2) > EquirectMaxLat {
			t.Skip()
		}
		if math.Abs(lon1-lon2) > 180 {
			t.Skip() // wrapped pair: the contract requires numeric differences
		}
		d := Distance(a, b)
		if d > EquirectMaxRadiusMiles {
			t.Skip()
		}
		if err := math.Abs(EquirectDistance(a, b) - d); err > EquirectTolMiles {
			t.Errorf("equirect error %.4f mi > %.2f for %v -> %v (d=%.1f)",
				err, EquirectTolMiles, a, b, d)
		}
	})
}
