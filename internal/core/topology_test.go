package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"riskroute/internal/geo"
	"riskroute/internal/risk"
	"riskroute/internal/stats"
	"riskroute/internal/topology"
)

// randomCtx draws a small seeded risk context built to stress the routing
// core's corner cases: one to three disconnected components, parallel links
// (repeated and reversed), PoPs with zero risk, an optional forecast layer
// and span risk on some links (zero on others).
func randomCtx(seed uint64) *risk.Context {
	rng := stats.NewRNG(seed)
	n := 2 + rng.Intn(13)
	net := &topology.Network{Name: fmt.Sprintf("random-%d", seed)}
	for i := 0; i < n; i++ {
		net.PoPs = append(net.PoPs, topology.PoP{
			Name:     fmt.Sprintf("p%d", i),
			Location: geo.Point{Lat: 25 + rng.Float64()*24, Lon: -124 + rng.Float64()*57},
		})
	}
	comps := 1 + rng.Intn(3)
	comp := func(i int) int { return i % comps }
	for i := 1; i < n; i++ {
		// Tree edge to an earlier PoP of the same component, if any.
		for j := i - 1; j >= 0; j-- {
			if comp(j) == comp(i) {
				net.Links = append(net.Links, topology.Link{A: rng.Intn(j + 1), B: i})
				break
			}
		}
	}
	for e := rng.Intn(2 * n); e > 0; e-- {
		if a, b := rng.Intn(n), rng.Intn(n); a != b && comp(a) == comp(b) {
			net.Links = append(net.Links, topology.Link{A: a, B: b})
		}
	}
	if len(net.Links) > 0 {
		l := net.Links[rng.Intn(len(net.Links))]
		net.Links = append(net.Links, l, topology.Link{A: l.B, B: l.A})
	}

	ctx := &risk.Context{
		Net:       net,
		Hist:      make([]float64, n),
		Fractions: make([]float64, n),
		Params:    risk.Params{LambdaH: 1e4 + rng.Float64()*1e5, LambdaF: 1e3},
	}
	for i := 0; i < n; i++ {
		if rng.Intn(4) > 0 {
			ctx.Hist[i] = rng.Float64() * 1e-2
		}
		ctx.Fractions[i] = rng.Float64() * 0.2
	}
	if rng.Intn(2) == 0 {
		ctx.Forecast = make([]float64, n)
		for i := range ctx.Forecast {
			if rng.Intn(3) == 0 {
				ctx.Forecast[i] = rng.Float64() * 0.5
			}
		}
	}
	if rng.Intn(2) == 0 {
		span := make([]float64, len(net.Links))
		for i := range span {
			if rng.Intn(2) == 0 {
				span[i] = rng.Float64() * 1e-3
			}
		}
		ctx.SetLinkHist(span)
	}
	return ctx
}

const oracleSeeds = 200

// TestPathCostSymmetricOffsetRandom checks the identity the symmetric
// routing weight rests on: for any path, the symmetric cost exceeds
// Equation 1 by α·(ρ(first) − ρ(last))/2, whatever the route in between
// (Equation 1 charges every node but the first; the symmetric form charges
// every node but half of each endpoint).
func TestPathCostSymmetricOffsetRandom(t *testing.T) {
	for seed := uint64(1); seed <= oracleSeeds; seed++ {
		ctx := randomCtx(seed)
		e := mustEngine(t, ctx, Options{})
		n := e.N()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				path := e.RiskRoutePair(i, j).Path
				if len(path) < 2 {
					continue
				}
				got := ctx.PathCostSymmetric(path, i, j) - ctx.PathCost(path, i, j)
				want := ctx.Alpha(i, j) * (ctx.NodeRisk(path[0]) - ctx.NodeRisk(path[len(path)-1])) / 2
				scale := ctx.PathCost(path, i, j) + ctx.PathCostSymmetric(path, i, j)
				if math.Abs(got-want) > 1e-9*scale {
					t.Fatalf("seed %d %d->%d: PathCostSymmetric - PathCost = %v, want %v", seed, i, j, got, want)
				}
			}
		}
	}
}

// TestTopologyEngineMatchesWeightedGraph pins an engine on a shared
// topology to the materialized risk-weighted graph: at each pair's α its
// route, search distance and priced cost equal WeightedGraph(α)'s bit for
// bit (the cost priced with a haversine per hop), and its shortest pair is
// the geographic graph's.
func TestTopologyEngineMatchesWeightedGraph(t *testing.T) {
	bits := math.Float64bits
	for seed := uint64(1); seed <= oracleSeeds; seed++ {
		ctx := randomCtx(seed)
		e, err := NewTopology(ctx.Net).New(ctx, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		geoG := ctx.Net.Graph()
		for i := 0; i < e.N(); i++ {
			for j := 0; j < e.N(); j++ {
				alpha := ctx.Alpha(i, j)
				wantPath, wantDist := ctx.WeightedGraph(alpha).ShortestPath(i, j)
				gotPath, gotDist := e.topo.csr.ShortestPathAt(i, j, alpha, e.slope)
				if !slices.Equal(gotPath, wantPath) || bits(gotDist) != bits(wantDist) {
					t.Fatalf("seed %d %d->%d at α=%v: %v/%v, want %v/%v", seed, i, j, alpha, gotPath, gotDist, wantPath, wantDist)
				}
				rr := e.RiskRoutePair(i, j)
				if !slices.Equal(rr.Path, wantPath) {
					t.Fatalf("seed %d %d->%d: RiskRoutePair path %v, want %v", seed, i, j, rr.Path, wantPath)
				}
				if wantPath != nil && (bits(rr.BitRiskMiles) != bits(ctx.PathCost(wantPath, i, j)) ||
					bits(rr.Miles) != bits(ctx.PathMiles(wantPath))) {
					t.Fatalf("seed %d %d->%d: priced %v/%v, want %v/%v", seed, i, j,
						rr.BitRiskMiles, rr.Miles, ctx.PathCost(wantPath, i, j), ctx.PathMiles(wantPath))
				}
				spWant, _ := geoG.ShortestPath(i, j)
				if sp := e.ShortestPair(i, j); !slices.Equal(sp.Path, spWant) {
					t.Fatalf("seed %d %d->%d: ShortestPair %v, want geographic %v", seed, i, j, sp.Path, spWant)
				}
			}
		}
		if want := len(geoG.Components()); e.Components() != want {
			t.Fatalf("seed %d: %d components, want %d", seed, e.Components(), want)
		}
	}
}

// TestTopologyWithoutMatchesPrunedNetwork checks that a pruned topology,
// which reuses its parent's link miles, routes exactly like a topology
// built from scratch over the pruned network.
func TestTopologyWithoutMatchesPrunedNetwork(t *testing.T) {
	for seed := uint64(1); seed <= oracleSeeds; seed++ {
		ctx := randomCtx(seed)
		rng := stats.NewRNG(seed ^ 0x5eed)
		var disabled []int
		for l := range ctx.Net.Links {
			if rng.Intn(3) == 0 {
				disabled = append(disabled, l)
			}
		}
		pruned := NewTopology(ctx.Net).Without(disabled)
		net := &topology.Network{Name: ctx.Net.Name, PoPs: ctx.Net.PoPs}
		for l, link := range ctx.Net.Links {
			if !slices.Contains(disabled, l) {
				net.Links = append(net.Links, link)
			}
		}
		if p := pruned.Net(); p.Name != net.Name || &p.PoPs[0] != &net.PoPs[0] || !slices.Equal(p.Links, net.Links) {
			t.Fatalf("seed %d: pruned network %+v, want %+v sharing the PoPs", seed, p, net)
		}
		at := func(topo *Topology) *Engine {
			c := *ctx
			c.Net = topo.Net()
			e, err := topo.New(&c, Options{})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return e
		}
		got, want := at(pruned), at(NewTopology(net))
		if got.Components() != want.Components() || got.UnreachablePairs() != want.UnreachablePairs() {
			t.Fatalf("seed %d: components %d/%d unreachable, want %d/%d", seed,
				got.Components(), got.UnreachablePairs(), want.Components(), want.UnreachablePairs())
		}
		for i := 0; i < got.N(); i++ {
			for j := 0; j < got.N(); j++ {
				if g, w := got.RiskRoutePair(i, j), want.RiskRoutePair(i, j); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d %d->%d: RiskRoutePair %+v, want %+v", seed, i, j, g, w)
				}
				if g, w := got.ShortestPair(i, j), want.ShortestPair(i, j); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d %d->%d: ShortestPair %+v, want %+v", seed, i, j, g, w)
				}
			}
		}
	}
}

// TestSharedTopologyConcurrentEngines routes from 8 goroutines at once on
// engines that share one Topology but carry different slope vectors
// (different λ, with and without a forecast layer); every result must equal
// a sequential run's. Run under -race.
func TestSharedTopologyConcurrentEngines(t *testing.T) {
	base := explainCtx(5)
	topo := NewTopology(base.Net)
	ctxs := make([]*risk.Context, 8)
	for g := range ctxs {
		c := *base
		c.Params.LambdaH *= float64(1 + g)
		if g%2 == 1 {
			c.Forecast = nil
		}
		ctxs[g] = &c
	}
	type result struct {
		pairs    []PairResult
		explains []Explanation
		ratios   Ratios
	}
	run := func(e *Engine) result {
		var r result
		for i := 0; i < e.N(); i++ {
			for j := 0; j < e.N(); j++ {
				r.pairs = append(r.pairs, e.RiskRoutePair(i, j), e.ShortestPair(i, j))
			}
			r.explains = append(r.explains, e.Explain(i, e.N()-1-i))
		}
		r.ratios = e.Evaluate()
		return r
	}
	want := make([]result, len(ctxs))
	for g, c := range ctxs {
		want[g] = run(mustEngine(t, c, Options{Workers: 1}))
	}
	got := make([]result, len(ctxs))
	var wg sync.WaitGroup
	for g := range ctxs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e, err := topo.New(ctxs[g], Options{Workers: 1})
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = run(e)
		}(g)
	}
	wg.Wait()
	for g := range ctxs {
		if !reflect.DeepEqual(got[g], want[g]) {
			t.Fatalf("engine %d: concurrent results on the shared topology differ from the sequential run", g)
		}
	}
	if reflect.DeepEqual(want[0].pairs, want[2].pairs) {
		t.Fatal("λ had no effect: the engines do not exercise different slopes")
	}
}

func TestTopologyNewRejectsForeignNetwork(t *testing.T) {
	ctx := explainCtx(5)
	other := *ctx.Net
	if _, err := NewTopology(&other).New(ctx, Options{}); err == nil {
		t.Fatal("an engine was built over a topology of a different network")
	}
}
