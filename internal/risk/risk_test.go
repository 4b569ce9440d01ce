package risk

import (
	"math"
	"testing"
	"testing/quick"

	"riskroute/internal/geo"
	"riskroute/internal/stats"
	"riskroute/internal/topology"
)

// diamondNet builds a 4-PoP diamond: A - B - D and A - C - D, where the
// B side is geographically shorter but C is risk-free.
func diamondNet() *topology.Network {
	return &topology.Network{
		Name: "Diamond",
		Tier: topology.Tier1,
		PoPs: []topology.PoP{
			{Name: "A", Location: geo.Point{Lat: 30, Lon: -95}},
			{Name: "B", Location: geo.Point{Lat: 31, Lon: -92}}, // short, risky
			{Name: "C", Location: geo.Point{Lat: 34, Lon: -92}}, // long, safe
			{Name: "D", Location: geo.Point{Lat: 30, Lon: -89}},
		},
		Links: []topology.Link{{A: 0, B: 1}, {A: 1, B: 3}, {A: 0, B: 2}, {A: 2, B: 3}},
	}
}

func diamondCtx(lambdaH float64) *Context {
	return &Context{
		Net:       diamondNet(),
		Hist:      []float64{0, 1, 0, 0}, // all risk concentrated at B
		Fractions: []float64{0.25, 0.25, 0.25, 0.25},
		Params:    Params{LambdaH: lambdaH, LambdaF: 1e3},
	}
}

func TestValidate(t *testing.T) {
	c := diamondCtx(1e5)
	if err := c.Validate(); err != nil {
		t.Fatalf("valid context rejected: %v", err)
	}
	bad := *c
	bad.Hist = []float64{1}
	if bad.Validate() == nil {
		t.Error("short Hist accepted")
	}
	bad = *c
	bad.Forecast = []float64{1}
	if bad.Validate() == nil {
		t.Error("short Forecast accepted")
	}
	bad = *c
	bad.Fractions = nil
	if bad.Validate() == nil {
		t.Error("missing Fractions accepted")
	}
	bad = *c
	bad.Params.LambdaH = -1
	if bad.Validate() == nil {
		t.Error("negative lambda accepted")
	}
	bad = *c
	bad.Hist = []float64{0, -1, 0, 0}
	if bad.Validate() == nil {
		t.Error("negative risk accepted")
	}
	bad = *c
	bad.Forecast = []float64{0, math.NaN(), 0, 0}
	if bad.Validate() == nil {
		t.Error("NaN forecast accepted")
	}
	bad = *c
	bad.Params.LambdaF = math.Inf(1)
	if bad.Validate() == nil {
		t.Error("infinite lambda accepted")
	}
}

func TestNodeRiskComposition(t *testing.T) {
	c := diamondCtx(100)
	if got := c.NodeRisk(1); got != 100 {
		t.Errorf("NodeRisk(1) = %v, want 100 (no forecast)", got)
	}
	c.Forecast = []float64{0, 50, 0, 0}
	if got := c.NodeRisk(1); got != 100+50*1e3 {
		t.Errorf("NodeRisk(1) with forecast = %v, want %v", got, 100+50*1e3)
	}
	if got := c.NodeRisk(0); got != 0 {
		t.Errorf("NodeRisk(0) = %v, want 0", got)
	}
}

func TestAlpha(t *testing.T) {
	c := diamondCtx(1)
	if got := c.Alpha(0, 3); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Alpha = %v, want 0.5", got)
	}
}

func TestRiskAverseRoutingKicksIn(t *testing.T) {
	// With λ_h = 0 the short risky side wins; with large λ_h the safe side
	// wins despite being longer.
	neutral := diamondCtx(0)
	g := neutral.WeightedGraph(neutral.Alpha(0, 3))
	path, _ := g.ShortestPath(0, 3)
	if len(path) != 3 || path[1] != 1 {
		t.Errorf("neutral path = %v, want via B (node 1)", path)
	}

	averse := diamondCtx(1e5)
	g = averse.WeightedGraph(averse.Alpha(0, 3))
	path, _ = g.ShortestPath(0, 3)
	if len(path) != 3 || path[1] != 2 {
		t.Errorf("risk-averse path = %v, want via C (node 2)", path)
	}
}

func TestPathCostEquationOne(t *testing.T) {
	c := diamondCtx(1e4)
	path := []int{0, 1, 3}
	alpha := c.Alpha(0, 3)
	wantDist := c.PathMiles(path)
	// Risk of entered nodes: B (risk 1·λ_h) and D (risk 0).
	want := wantDist + alpha*1e4*1
	if got := c.PathCost(path, 0, 3); math.Abs(got-want) > 1e-6 {
		t.Errorf("PathCost = %v, want %v", got, want)
	}
}

func TestSymmetricConstantOffsetProperty(t *testing.T) {
	// For any two paths between the same endpoints, the entered-node cost
	// and the symmetric cost must differ by the same constant, so arg-min
	// is preserved. Verified on random contexts and paths.
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		net := diamondNet()
		c := &Context{
			Net:       net,
			Hist:      []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()},
			Fractions: []float64{0.1, 0.2, 0.3, 0.4},
			Params:    Params{LambdaH: rng.Range(0, 1e5), LambdaF: 0},
		}
		pathB := []int{0, 1, 3}
		pathC := []int{0, 2, 3}
		offsetB := c.PathCost(pathB, 0, 3) - c.PathCostSymmetric(pathB, 0, 3)
		offsetC := c.PathCost(pathC, 0, 3) - c.PathCostSymmetric(pathC, 0, 3)
		// Offsets equal across routes, and equal to α(ρ(last)-ρ(first))/2.
		alpha := c.Alpha(0, 3)
		wantOffset := alpha * (c.NodeRisk(3) - c.NodeRisk(0)) / 2
		return math.Abs(offsetB-offsetC) < 1e-9 && math.Abs(offsetB-wantOffset) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("constant offset property failed: %v", err)
	}
}

func TestWeightedGraphMatchesEdgeWeight(t *testing.T) {
	c := diamondCtx(1e4)
	alpha := 0.37
	g := c.WeightedGraph(alpha)
	if g.M() != len(c.Net.Links) {
		t.Fatalf("weighted graph has %d edges, want %d", g.M(), len(c.Net.Links))
	}
	for _, e := range g.Edges() {
		want := c.EdgeWeight(e.U, e.V, alpha)
		if math.Abs(e.Weight-want) > 1e-9 {
			t.Errorf("edge (%d,%d) weight %v, want %v", e.U, e.V, e.Weight, want)
		}
	}
}

func TestEdgeWeightMonotoneInAlphaAndRisk(t *testing.T) {
	c := diamondCtx(1e4)
	w1 := c.EdgeWeight(0, 1, 0.1)
	w2 := c.EdgeWeight(0, 1, 0.5)
	if w2 <= w1 {
		t.Errorf("edge weight should grow with alpha: %v vs %v", w1, w2)
	}
	// Risk-free edge: weight equals distance regardless of alpha.
	w := c.EdgeWeight(0, 2, 0.9)
	d := c.Net.LinkMiles(topology.Link{A: 0, B: 2})
	if math.Abs(w-d) > 1e-9 {
		t.Errorf("risk-free edge weight %v, want distance %v", w, d)
	}
}

func TestPathMilesAndRiskSum(t *testing.T) {
	c := diamondCtx(1)
	path := []int{0, 1, 3}
	wantMiles := c.Net.LinkMiles(topology.Link{A: 0, B: 1}) + c.Net.LinkMiles(topology.Link{A: 1, B: 3})
	if got := c.PathMiles(path); math.Abs(got-wantMiles) > 1e-9 {
		t.Errorf("PathMiles = %v, want %v", got, wantMiles)
	}
	// Risk sum: edges (0,1) and (1,3) each carry half of B's risk ρ=1.
	if got := c.PathRiskSum(path); math.Abs(got-1) > 1e-12 {
		t.Errorf("PathRiskSum = %v, want 1", got)
	}
	if got := c.PathMiles([]int{2}); got != 0 {
		t.Errorf("single-node PathMiles = %v", got)
	}
	if got := c.PathCostSymmetric([]int{2}, 0, 3); got != 0 {
		t.Errorf("single-node symmetric cost = %v", got)
	}
}

func TestForecastChangesRouting(t *testing.T) {
	// Historical risk 0 everywhere; an active forecast over B should push
	// routing to the C side at the paper's λ_f.
	c := &Context{
		Net:       diamondNet(),
		Hist:      []float64{0, 0, 0, 0},
		Forecast:  []float64{0, 100, 0, 0}, // hurricane-force winds over B
		Fractions: []float64{0.25, 0.25, 0.25, 0.25},
		Params:    PaperParams(),
	}
	g := c.WeightedGraph(c.Alpha(0, 3))
	path, _ := g.ShortestPath(0, 3)
	if len(path) != 3 || path[1] != 2 {
		t.Errorf("forecast-averse path = %v, want via C", path)
	}
}

func TestPaperParams(t *testing.T) {
	p := PaperParams()
	if p.LambdaH != 1e5 || p.LambdaF != 1e3 {
		t.Errorf("PaperParams = %+v", p)
	}
}

func TestLinkRiskRouting(t *testing.T) {
	// Diamond with zero node risk everywhere: only span risk differs. The
	// short B side crosses a hot zone; routing should take the C side.
	c := &Context{
		Net:       diamondNet(),
		Hist:      []float64{0, 0, 0, 0},
		Fractions: []float64{0.25, 0.25, 0.25, 0.25},
		Params:    Params{LambdaH: 1e5},
	}
	// Links: (0,1), (1,3), (0,2), (2,3) — make the B-side spans risky.
	c.SetLinkHist([]float64{0.5, 0.5, 0, 0})

	if got := c.LinkRisk(0, 1); got != 1e5*0.5 {
		t.Errorf("LinkRisk(0,1) = %v", got)
	}
	if got := c.LinkRisk(1, 0); got != 1e5*0.5 {
		t.Error("LinkRisk should be symmetric")
	}
	if got := c.LinkRisk(0, 2); got != 0 {
		t.Errorf("safe span risk = %v", got)
	}

	g := c.WeightedGraph(c.Alpha(0, 3))
	path, _ := g.ShortestPath(0, 3)
	if len(path) != 3 || path[1] != 2 {
		t.Errorf("span-risk-averse path = %v, want via C", path)
	}

	// Eq.1 extension: path cost includes the span term.
	costB := c.PathCost([]int{0, 1, 3}, 0, 3)
	wantB := c.PathMiles([]int{0, 1, 3}) + c.Alpha(0, 3)*1e5*(0.5+0.5)
	if math.Abs(costB-wantB) > 1e-6 {
		t.Errorf("PathCost with spans = %v, want %v", costB, wantB)
	}

	// Constant-offset equivalence still holds with span risk present.
	offB := c.PathCost([]int{0, 1, 3}, 0, 3) - c.PathCostSymmetric([]int{0, 1, 3}, 0, 3)
	offC := c.PathCost([]int{0, 2, 3}, 0, 3) - c.PathCostSymmetric([]int{0, 2, 3}, 0, 3)
	if math.Abs(offB-offC) > 1e-9 {
		t.Errorf("offsets differ with span risk: %v vs %v", offB, offC)
	}

	// Clearing restores zero span risk.
	c.SetLinkHist(nil)
	if c.LinkRisk(0, 1) != 0 {
		t.Error("SetLinkHist(nil) did not clear span risk")
	}
}

func TestSetLinkHistValidation(t *testing.T) {
	c := diamondCtx(1e5)
	for name, vals := range map[string][]float64{
		"short":    {1, 2},
		"negative": {-1, 0, 0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			c.SetLinkHist(vals)
		}()
	}
}
