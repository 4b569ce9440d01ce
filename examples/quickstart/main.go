// Quickstart: route traffic between two PoPs with RiskRoute and compare it
// with geographic shortest-path routing — the paper's Figure 7 scenario
// (Level3, Houston → Boston) in a dozen lines of API.
package main

import (
	"fmt"
	"log"
	"strings"

	"riskroute"
)

func main() {
	// The embedded Level3 map: 233 PoPs over real US cities.
	net := riskroute.BuiltinNetwork("Level3")

	// The synthetic world: a continental-US census, the five disaster
	// catalogs fitted with the paper's trained kernel bandwidths, and the
	// population each PoP serves (nearest neighbor) as outage impact.
	world, err := riskroute.FitWorld(riskroute.WorldConfig{
		Networks: []*riskroute.Network{net}, Blocks: 20000, EventScale: 0.2, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Bit-risk-mile context at the paper's tuning (λ_h = 1e5, λ_f = 1e3).
	ctx := &riskroute.Context{
		Net:       net,
		Hist:      world.Networks[0].Hist,
		Fractions: world.Networks[0].Assignment.Fractions,
		Params:    riskroute.PaperParams(),
	}
	engine, err := riskroute.NewEngine(ctx, riskroute.Options{})
	if err != nil {
		log.Fatal(err)
	}

	from := net.PoPIndex("Houston")
	to := net.PoPIndex("Boston")
	shortest := engine.ShortestPair(from, to)
	riskAware := engine.RiskRoutePair(from, to)

	show := func(label string, r riskroute.PairResult) {
		names := make([]string, len(r.Path))
		for i, v := range r.Path {
			names[i] = net.PoPs[v].Name
		}
		fmt.Printf("%-9s  %6.0f mi  %8.0f bit-risk mi\n  %s\n",
			label, r.Miles, r.BitRiskMiles, strings.Join(names, " -> "))
	}
	fmt.Println("Level3, Houston TX -> Boston MA")
	show("shortest", shortest)
	show("riskroute", riskAware)
	fmt.Printf("\nrisk reduction %.1f%% for %.1f%% extra distance\n",
		100*(1-riskAware.BitRiskMiles/shortest.BitRiskMiles),
		100*(riskAware.Miles/shortest.Miles-1))
}
