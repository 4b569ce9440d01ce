package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"riskroute"
)

// The ensemble workload's fixed shape: the CLI's default 1k composition,
// four routed pairs, over four networks of different sizes.
const (
	ensembleSpec  = "track=300,genesis=100,cut=250,disk=200,regional=150"
	ensemblePairs = 4
)

var ensembleNets = []string{"Level3", "Sprint", "Tinet", "Abilene"}

// ensembleWorld is the static input of every sweep.
type ensembleWorld struct {
	worlds []riskroute.EnsembleWorld
}

// buildEnsembleWorld builds the default world for the ensemble networks:
// hazard fit, census, per-network assignment and historical PoP risks. With
// rec set, each call into those layers gets a span.
func buildEnsembleWorld(workers int, rec *recorder) (*ensembleWorld, error) {
	s := rec.begin("hazard.fit", -1, -1)
	model, err := riskroute.FitHazard(riskroute.SyntheticHazardSources(worldEventScale, worldSeed),
		riskroute.HazardFitConfig{Workers: workers})
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin("datasets.census", -1, -1)
	census := riskroute.SyntheticCensus(worldBlocks, worldSeed)
	rec.end(s)
	w := &ensembleWorld{}
	for i, name := range ensembleNets {
		net := riskroute.BuiltinNetwork(name)
		if net == nil {
			return nil, fmt.Errorf("unknown network %q", name)
		}
		s = rec.begin("population.assign", -1, i)
		asg, err := riskroute.AssignPopulationWorkers(census, net, workers)
		rec.end(s)
		if err != nil {
			return nil, err
		}
		s = rec.begin("hazard.pop_risks", -1, i)
		hist := model.PoPRisks(net)
		rec.end(s)
		w.worlds = append(w.worlds, riskroute.EnsembleWorld{Net: net, Hist: hist, Fractions: asg.Fractions})
	}
	return w, nil
}

// sweepSeed derives the k-th sweep's ensemble seed from the workload seed.
func sweepSeed(seed uint64, k int) uint64 {
	return rand.New(rand.NewPCG(seed, uint64(k))).Uint64()
}

// sweep generates and sweeps one ensemble at the given seed.
func (w *ensembleWorld) sweep(seed uint64, workers int) (*riskroute.EnsembleReport, error) {
	scenarios, err := w.generate(seed, workers)
	if err != nil {
		return nil, err
	}
	return w.evaluate(scenarios, seed, workers)
}

func (w *ensembleWorld) generate(seed uint64, workers int) ([]*riskroute.Scenario, error) {
	specs, err := riskroute.ParseScenarioSpec(ensembleSpec)
	if err != nil {
		return nil, err
	}
	return riskroute.GenerateScenarios(riskroute.ScenarioConfig{
		Seed:    seed,
		Spec:    specs,
		Track:   riskroute.HurricaneByName("Sandy"),
		Perturb: riskroute.DefaultTrackPerturbation(),
		Workers: workers,
	})
}

func (w *ensembleWorld) evaluate(scenarios []*riskroute.Scenario, seed uint64, workers int) (*riskroute.EnsembleReport, error) {
	return riskroute.SweepEnsemble(scenarios, w.worlds, riskroute.EnsembleConfig{
		Seed:    seed,
		Params:  riskroute.PaperParams(),
		Pairs:   ensemblePairs,
		Workers: workers,
	})
}

// reportBytes renders a report exactly as `riskroute ensemble` prints it.
func reportBytes(rep *riskroute.EnsembleReport) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(rep)
	return buf.Bytes(), err
}

// runEnsemble runs repeated 1k-scenario sweeps in-process.
func runEnsemble(ctx context.Context, o *options) (*report, error) {
	rep := newReport(o)
	workers := runtime.NumCPU()
	rep.env.Link = "none: in-process through the riskroute facade"
	rep.env.Clients, rep.env.Loop = 1, fmt.Sprintf("closed: back-to-back sweeps of %s x %d pairs over %v, Workers=%d",
		ensembleSpec, ensemblePairs, ensembleNets, workers)
	rep.env.WorldNetworks = len(ensembleNets)
	rep.env.QueryDigest = fmt.Sprintf("%016x", sweepSeed(o.seed, 0))

	var world *ensembleWorld
	var setups []float64
	for range o.boots {
		t0 := time.Now()
		w, err := buildEnsembleWorld(workers, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		world = w
	}
	rep.set("setup_s", median(setups), fmt.Sprintf("median of %d world builds", len(setups)))

	seeds := make([]uint64, 0, 64)
	var reports []*riskroute.EnsembleReport
	var lat, rss []float64
	scenarios := 0
	runtime.GC()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		if ctx.Err() != nil {
			return nil, errStopped
		}
		// Reset the peak RSS so VmHWM reads this sweep's own peak.
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			return nil, err
		}
		seed := sweepSeed(o.seed, k)
		t0 := time.Now()
		r, err := world.sweep(seed, workers)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.extra = append(rep.extra, fmt.Sprintf("sweep %d failed: %v", k, err))
			continue
		}
		lat = append(lat, time.Since(t0).Seconds())
		peak, err := peakRSSMiB(os.Getpid())
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		scenarios += r.Scenarios
		seeds = append(seeds, seed)
		reports = append(reports, r)
	}
	elapsed := time.Since(start)
	if len(reports) == 0 {
		return nil, fmt.Errorf("every sweep failed: %v", rep.extra)
	}

	// Correctness: the first sweep again at Workers 1 must produce the same
	// report bytes as the timed Workers=nproc sweep.
	rep.attempted++
	got, err := reportBytes(reports[0])
	if err != nil {
		return nil, err
	}
	again, err := world.sweep(seeds[0], 1)
	if err == nil {
		var want []byte
		if want, err = reportBytes(again); err == nil && !bytes.Equal(got, want) {
			err = fmt.Errorf("seed %d: report bytes differ between Workers=1 and Workers=%d", seeds[0], workers)
		}
	}
	if err != nil {
		rep.failed++
		rep.mismatch++
		rep.extra = append(rep.extra, "first mismatch: "+err.Error())
	}

	n := len(lat)
	rep.set("ops_per_s", float64(scenarios)/elapsed.Seconds(),
		fmt.Sprintf("scenarios_per_s: %d scenarios generated and swept in %.3f s", scenarios, elapsed.Seconds()))
	rep.set("p50_us", quantile(lat, 0.5)*1e6, fmt.Sprintf("one sweep (generate + sweep), exact over n=%d", n))
	rep.set("p90_us", quantile(lat, 0.9)*1e6, fmt.Sprintf("one sweep (generate + sweep), nearest rank over n=%d", n))
	rep.extra = append(rep.extra, fmt.Sprintf(
		"metric p99_us = %.6g us (one sweep (generate + sweep), nearest rank over n=%d)", quantile(lat, 0.99)*1e6, n))
	rep.set("rss_mb", median(rss), fmt.Sprintf("benchmark process VmHWM, median of %d per-sweep peaks", len(rss)))
	if o.trace {
		if err := replayEnsemble(o, rep, workers, seeds); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// replayEnsemble is the ensemble's traced run: the world build, whole
// sweeps at the timed phase's first seeds, and one sweep's scenarios
// replayed layer by layer (compile, engine build, pair routing).
func replayEnsemble(o *options, rep *report, workers int, seeds []uint64) error {
	rec := newRecorder("perfbench " + o.workload)
	world, err := buildEnsembleWorld(workers, rec)
	if err != nil {
		return err
	}
	var scenarios []*riskroute.Scenario
	for k := range min(3, len(seeds)) {
		s := rec.begin("scenario.generate", -1, k)
		scenarios, err = world.generate(seeds[k], workers)
		rec.end(s)
		if err != nil {
			return err
		}
		m0 := mallocs()
		s = rec.begin("scenario.sweep", -1, k)
		_, err = world.evaluate(scenarios, seeds[k], workers)
		rec.end(s)
		if err != nil {
			return err
		}
		if k == 0 {
			a := rec.begin("scenario.alloc_pass", -1, -1)
			rec.setAttr(a, "allocs", mallocs()-m0)
			rec.setAttr(a, "scenarios", int64(len(scenarios)))
			rec.end(a)
		}
	}

	rng := rand.New(rand.NewPCG(o.seed, 0x656e73))
	rm := riskroute.DefaultForecastModel()
	var calls []pairCall
	for i, sc := range scenarios {
		r := rec.begin("scenario", -1, i)
		for _, w := range world.worlds {
			s := rec.begin("scenario.compile", r, i)
			ov := sc.Compile(w.Net, rm)
			rec.end(s)
			net := w.Net
			if len(ov.Disabled) > 0 {
				net = pruneLinks(w.Net, ov.Disabled)
			}
			s = rec.begin("core.new", r, i)
			eng, err := riskroute.NewEngine(&riskroute.Context{
				Net: net, Hist: w.Hist, Forecast: ov.Forecast, Fractions: w.Fractions,
				Params: riskroute.PaperParams(),
			}, riskroute.Options{Workers: 1})
			rec.end(s)
			if err != nil {
				return err
			}
			n := len(net.PoPs)
			for range ensemblePairs {
				src, dst := rng.IntN(n), rng.IntN(n-1)
				if dst >= src {
					dst++
				}
				kernelSpans(rec, r, i, eng, src, dst, false)
				calls = append(calls, pairCall{eng, src, dst})
			}
		}
		rec.end(r)
	}
	allocPass(rec, calls)
	rec.layerFromSpans(rep)
	// Layers of the daemon's request path this workload never calls.
	for _, name := range []string{"serve.cache_hit_ratio", "serve.advisory_post_ms.p50",
		"edge.overhead_us.p50", "runtime.mallocs_per_req", "runtime.gc_cpu_frac"} {
		rep.set(name, 0, "not on this workload's path")
	}
	return rec.write(filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)))
}

// pruneLinks returns a shallow network copy without the disabled links,
// as the sweep does for regional failures.
func pruneLinks(net *riskroute.Network, disabled []int) *riskroute.Network {
	dead := make(map[int]bool, len(disabled))
	for _, i := range disabled {
		dead[i] = true
	}
	links := make([]riskroute.Link, 0, len(net.Links)-len(disabled))
	for i, l := range net.Links {
		if !dead[i] {
			links = append(links, l)
		}
	}
	return &riskroute.Network{Name: net.Name, Tier: net.Tier, PoPs: net.PoPs, Links: links}
}
