// Interdomain: evaluate a regional network's outage exposure across the
// full 23-network peering mesh and find its best new peering relationship —
// the paper's Sections 6.2/6.3 and Figures 8 and 11.
package main

import (
	"fmt"
	"log"

	"riskroute"
)

func main() {
	nets := riskroute.BuiltinNetworks()
	world, err := riskroute.FitWorld(riskroute.WorldConfig{Blocks: 20000, EventScale: 0.2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Composite routing graph: all 23 networks joined at co-located PoPs of
	// peered pairs.
	comp, err := riskroute.BuildComposite(nets, riskroute.BuiltinPeered)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("composite mesh: %d PoPs, %d links\n\n", len(comp.Flat.PoPs), len(comp.Flat.Links))

	an, err := riskroute.NewInterdomainAnalysis(comp, world.Model, world.Census, nil,
		riskroute.Params{LambdaH: 1e5}, riskroute.Options{})
	if err != nil {
		log.Fatal(err)
	}

	var regionals []string
	for _, n := range riskroute.BuiltinRegional() {
		regionals = append(regionals, n.Name)
	}

	// Figure 8-style evaluation for a few regional networks: the gap
	// between shortest-path routing through the mesh (upper bound) and
	// RiskRoute with control of every network (lower bound).
	fmt.Println("interdomain ratios (sources: network PoPs; destinations: all regional PoPs):")
	for _, name := range []string{"Digex", "Telepak", "Hibernia", "NTS"} {
		r, err := an.RegionalRatios(name, regionals)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s risk reduction %.3f  distance increase %.3f  (%d pairs)\n",
			name, r.RiskReduction, r.DistanceIncrease, r.Pairs)
	}

	// Figure 11: the best new peering for Telepak, scored by the
	// lower-bound bit-risk objective over its interdomain traffic.
	name := "Telepak"
	fmt.Printf("\ncandidate peerings for %s (currently peers with %v):\n",
		name, riskroute.BuiltinPeers(name))
	choices, err := riskroute.BestNewPeering(nets, riskroute.BuiltinPeered, name,
		regionals, world.Model, world.Census, riskroute.Params{LambdaH: 1e5}, riskroute.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for i, c := range choices {
		marker := ""
		if i == 0 {
			marker = "  <- best"
		}
		fmt.Printf("  %-14s bit-risk fraction %.4f  (%d shared cities)%s\n",
			c.Peer, c.Fraction, c.SharedCities, marker)
	}
}
