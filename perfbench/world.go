package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"riskroute"
)

// serveConfig is the world configuration riskrouted boots with by default.
func serveConfig() riskroute.ServeConfig {
	return riskroute.ServeConfig{Blocks: worldBlocks, EventScale: worldEventScale, Seed: worldSeed}
}

// bakeWorld runs riskrouted's fit pipeline once in-process, writes the
// snapshot the daemon boots from, and returns the world and its digest.
func bakeWorld(path string) (*riskroute.WorldSnapshot, string, error) {
	cfg := serveConfig()
	cfg.Workers = runtime.NumCPU()
	world, err := riskroute.BakeServeWorld(cfg)
	if err != nil {
		return nil, "", fmt.Errorf("bake: %w", err)
	}
	digest, err := riskroute.WriteWorldSnapshotFile(path, world)
	if err != nil {
		return nil, "", fmt.Errorf("bake: %w", err)
	}
	return world, digest, nil
}

// oracle answers route queries in-process through the riskroute facade,
// from the same world the daemon serves: the correctness reference every
// recorded daemon response is checked against.
type oracle struct {
	nets      []*riskroute.Network
	hist      [][]float64
	fractions [][]float64
	// advisories maps a generation to the advisory text that produced it;
	// generation 1 is the startup world with no forecast layer.
	advisories map[uint64]string
	forecasts  map[fcKey][]float64
	engines    map[engineKey]*riskroute.Engine
	parsed     map[uint64]*riskroute.Advisory
}

type fcKey struct {
	gen uint64
	net int
}

type engineKey struct {
	gen     uint64
	net     int
	lambdaH float64
}

func newOracle(nets []*riskroute.Network, world *riskroute.WorldSnapshot) (*oracle, error) {
	o := &oracle{
		nets:       nets,
		hist:       make([][]float64, len(nets)),
		fractions:  make([][]float64, len(nets)),
		advisories: map[uint64]string{},
		forecasts:  map[fcKey][]float64{},
		engines:    map[engineKey]*riskroute.Engine{},
		parsed:     map[uint64]*riskroute.Advisory{},
	}
	state := make(map[string]*riskroute.WorldSnapshotNetwork, len(world.Networks))
	for i := range world.Networks {
		state[world.Networks[i].Name] = &world.Networks[i]
	}
	for i, n := range nets {
		ns := state[n.Name]
		if ns == nil {
			return nil, fmt.Errorf("baked world has no network %q", n.Name)
		}
		o.hist[i] = ns.Hist
		o.fractions[i] = ns.Fractions
	}
	return o, nil
}

// engine returns the facade engine for one network, generation and λ_h
// (0 = the paper default the daemon serves).
func (o *oracle) engine(gen uint64, net int, lambdaH float64) (*riskroute.Engine, error) {
	key := engineKey{gen, net, lambdaH}
	if e := o.engines[key]; e != nil {
		return e, nil
	}
	var fc []float64
	if gen > 1 {
		adv := o.parsed[gen]
		if adv == nil {
			text, ok := o.advisories[gen]
			if !ok {
				return nil, fmt.Errorf("no advisory recorded for generation %d", gen)
			}
			var err error
			if adv, err = riskroute.ParseAdvisory(text); err != nil {
				return nil, err
			}
			o.parsed[gen] = adv
		}
		fk := fcKey{gen, net}
		if fc = o.forecasts[fk]; fc == nil {
			fc = riskroute.DefaultForecastModel().PoPRisks(adv, o.nets[net])
			o.forecasts[fk] = fc
		}
	}
	p := riskroute.PaperParams()
	if lambdaH != 0 {
		p.LambdaH = lambdaH
	}
	e, err := riskroute.NewEngine(&riskroute.Context{
		Net:       o.nets[net],
		Hist:      o.hist[net],
		Forecast:  fc,
		Fractions: o.fractions[net],
		Params:    p,
	}, riskroute.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	o.engines[key] = e
	return e, nil
}

// routeLeg and routeBody are the fields of a /v1/route response the check
// compares.
type routeLeg struct {
	Path         []string `json:"path"`
	Miles        float64  `json:"miles"`
	BitRiskMiles float64  `json:"bit_risk_miles"`
}

type routeBody struct {
	Generation uint64   `json:"generation"`
	Network    string   `json:"network"`
	From       string   `json:"from"`
	To         string   `json:"to"`
	LambdaH    float64  `json:"lambda_h"`
	LambdaF    float64  `json:"lambda_f"`
	Shortest   routeLeg `json:"shortest"`
	RiskRoute  routeLeg `json:"riskroute"`
}

// identity checks that a response answers the query that was sent.
func (o *oracle) identity(q query, b *routeBody) error {
	n := o.nets[q.net]
	wantLH := riskroute.PaperParams().LambdaH
	if q.lambdaH != 0 {
		wantLH = q.lambdaH
	}
	if b.Network != n.Name || b.From != n.PoPs[q.src].Name || b.To != n.PoPs[q.dst].Name ||
		b.LambdaH != wantLH || b.LambdaF != riskroute.PaperParams().LambdaF {
		return fmt.Errorf("response answers %s %s->%s λ=(%g,%g), asked %s",
			b.Network, b.From, b.To, b.LambdaH, b.LambdaF, q.path)
	}
	return nil
}

// compare checks one response against the facade engine for its network,
// λ and advisory generation: both paths and all miles and bit-risk-mile
// values must match bit for bit. Engines are safe for concurrent pair
// queries, so compare runs on several goroutines.
func (o *oracle) compare(q query, b *routeBody, eng *riskroute.Engine) error {
	n := o.nets[q.net]
	for _, leg := range []struct {
		name string
		got  routeLeg
		want riskroute.PairResult
	}{
		{"riskroute", b.RiskRoute, eng.RiskRoutePair(q.src, q.dst)},
		{"shortest", b.Shortest, eng.ShortestPair(q.src, q.dst)},
	} {
		names := make([]string, len(leg.want.Path))
		for i, v := range leg.want.Path {
			names[i] = n.PoPs[v].Name
		}
		if !slices.Equal(names, leg.got.Path) ||
			math.Float64bits(leg.got.BitRiskMiles) != math.Float64bits(leg.want.BitRiskMiles) ||
			math.Float64bits(leg.got.Miles) != math.Float64bits(leg.want.Miles) {
			return fmt.Errorf("%s gen %d %s: %s leg %v %v/%v, facade %v %v/%v", n.Name, b.Generation, q.path,
				leg.name, leg.got.Path, leg.got.Miles, leg.got.BitRiskMiles, names, leg.want.Miles, leg.want.BitRiskMiles)
		}
	}
	return nil
}

// checkItem is one recorded response on its way through checkResponses.
type checkItem struct {
	rec recorded
	q   query
	b   routeBody
	eng *riskroute.Engine
	err error
}

// checkResponses checks every recorded response against the facade and
// returns how many responses mismatched (identical responses to one query
// count once each) and the first mismatch. It works in chunks: decoding
// and comparing fan out over the CPUs, engine builds stay sequential
// because the oracle caches them.
func (o *oracle) checkResponses(qs []query, logs []*clientLog) (int64, error) {
	var all []recorded
	for _, cl := range logs {
		all = append(all, cl.bodies...)
	}
	var mismatched int64
	var first error
	items := make([]checkItem, 0, 4096)
	for len(all) > 0 {
		n := min(len(all), cap(items))
		items = items[:n]
		for i, r := range all[:n] {
			items[i] = checkItem{rec: r, q: qs[r.query]}
		}
		all = all[n:]
		parallelFor(n, func(i int) {
			it := &items[i]
			if it.err = json.Unmarshal(it.rec.body, &it.b); it.err == nil {
				it.err = o.identity(it.q, &it.b)
			}
		})
		for i := range items {
			if it := &items[i]; it.err == nil {
				it.eng, it.err = o.engine(it.b.Generation, it.q.net, it.q.lambdaH)
			}
		}
		parallelFor(n, func(i int) {
			if it := &items[i]; it.err == nil {
				it.err = o.compare(it.q, &it.b, it.eng)
			}
		})
		for _, it := range items {
			if it.err != nil {
				mismatched += int64(it.rec.count)
				if first == nil {
					first = it.err
				}
			}
		}
	}
	return mismatched, first
}

// parallelFor calls f(0..n-1) on one goroutine per CPU.
func parallelFor(n int, f func(i int)) {
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i)
			}
		}()
	}
	wg.Wait()
}
