// Disaster replay: watch RiskRoute react to Hurricane Sandy advisory by
// advisory — the paper's Figure 12 case study. Each NHC bulletin is
// generated from the embedded best track, parsed back by the NLP pipeline,
// converted to forecasted outage risk o_f at every PoP, and fed to the
// routing engine; the printed series is the risk-reduction ratio over
// shortest-path routing as the storm approaches and makes landfall.
package main

import (
	"fmt"
	"log"
	"strings"

	"riskroute"
)

func main() {
	net := riskroute.BuiltinNetwork("Sprint")
	world, err := riskroute.FitWorld(riskroute.WorldConfig{
		Networks: []*riskroute.Network{net}, Blocks: 20000, EventScale: 0.2, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := world.Networks[0]

	track := riskroute.HurricaneByName("Sandy")
	replay, err := riskroute.LoadHurricaneReplay(track)
	if err != nil {
		log.Fatal(err)
	}

	// Show one raw bulletin to demonstrate the NLP input.
	fmt.Println("sample advisory bulletin:")
	fmt.Println(indent(riskroute.AdvisoryCorpus(track)[45]))

	fc := riskroute.DefaultForecastModel() // ρ_t = 50, ρ_h = 100
	fmt.Println("Sprint during Hurricane Sandy (risk reduction ratio per advisory):")
	for i := 0; i < len(replay.Advisories); i += 5 {
		a := replay.Advisories[i]
		ctx := &riskroute.Context{
			Net:       net,
			Hist:      st.Hist,
			Forecast:  fc.PoPRisks(a, net),
			Fractions: st.Assignment.Fractions,
			Params:    riskroute.PaperParams(),
		}
		engine, err := riskroute.NewEngine(ctx, riskroute.Options{})
		if err != nil {
			log.Fatal(err)
		}
		r := engine.Evaluate()
		bar := strings.Repeat("#", int(r.RiskReduction*200))
		fmt.Printf("  adv %2d  %s  %.3f %s\n",
			a.Number, a.Time.UTC().Format("Oct 02 15:04Z"), r.RiskReduction, bar)
	}

	// The storm's cumulative footprint over this network.
	scope := riskroute.ScopeOf(replay)
	h, trop := scope.PoPsInScope(net)
	fmt.Printf("\nfinal scope: %d/%d Sprint PoPs saw hurricane-force winds, %d tropical-force or stronger\n",
		h, len(net.PoPs), trop)
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")
}
