// Package world builds the one world every RiskRoute answer runs on: the
// five-catalog KDE hazard fit that gives each PoP its historical risk, the
// synthetic census behind Eq. 1's population term, and each network's
// census assignment (paper §4–5).
//
// Fit builds a world from scratch, Restore rebuilds it from a baked
// snapshot, and Snapshot bakes it. The daemon, the CLI and the experiment
// lab all go through these, so a world reached one way is bit-identical to
// the same world reached another: a snapshot boot serves exactly what a
// fresh fit would.
package world

import (
	"fmt"
	"log/slog"
	"sync"

	"riskroute/internal/datasets"
	"riskroute/internal/geo"
	"riskroute/internal/hazard"
	"riskroute/internal/obs"
	"riskroute/internal/parallel"
	"riskroute/internal/population"
	"riskroute/internal/resilience"
	"riskroute/internal/snapshot"
	"riskroute/internal/topology"
)

// Config describes a world. It applies no defaults of its own: every
// caller keeps the defaults of its own configuration surface.
type Config struct {
	// Networks are assigned eagerly by Fit (fanned over internal/parallel)
	// and verified against the snapshot by Restore. Network computes any
	// other network on first use.
	Networks []*topology.Network
	// Blocks and Seed drive the synthetic census; EventScale,
	// MaxEventsPerCatalog (0 = uncapped) and Seed the disaster catalogs.
	Blocks              int
	EventScale          float64
	MaxEventsPerCatalog int
	Seed                uint64
	// CellMiles is the hazard raster resolution (0 = the hazard default).
	CellMiles float64
	// Workers bounds every parallel stage (0 = GOMAXPROCS). The world is
	// bit-identical at any setting.
	Workers int
	// Lenient and Injector pass through to hazard.FitConfig: a lenient fit
	// drops a failing catalog and re-normalizes the survivors.
	Lenient  bool
	Injector *resilience.Injector

	// Observability (all optional, nil-safe).
	Metrics *obs.Registry
	Trace   *obs.Span
	Health  *resilience.Health
	Logger  *slog.Logger
}

// NetworkState is one network's view of the world: its historical per-PoP
// risk and its census assignment, index-aligned with the network's PoPs.
type NetworkState struct {
	Net        *topology.Network
	Hist       []float64
	Assignment *population.Assignment
}

// World is a fitted (or restored) hazard model and census, plus the
// per-network states derived from them.
type World struct {
	Cfg    Config
	Model  *hazard.Model
	Census *population.Census
	// Sources are the catalogs Fit fitted (nil for restored worlds, whose
	// snapshot keeps only the fitted surfaces).
	Sources []hazard.Source
	// Networks holds Cfg.Networks' states, index-aligned.
	Networks []*NetworkState

	mu     sync.Mutex
	byName map[string]*NetworkState
}

// Events generates one synthetic disaster catalog at the given scale of
// the paper's size (scale <= 0 means 1), with at least 50 events and at
// most maxPerCatalog (0 = uncapped).
func Events(et datasets.EventType, scale float64, maxPerCatalog int, seed uint64) []geo.Point {
	if scale <= 0 {
		scale = 1
	}
	count := int(float64(et.PaperCount()) * scale)
	if count < 50 {
		count = 50
	}
	if maxPerCatalog > 0 && count > maxPerCatalog {
		count = maxPerCatalog
	}
	return datasets.GenerateEvents(et, count, seed)
}

// Sources builds the five synthetic disaster catalogs with the paper's
// Table 1 bandwidths preassigned.
func Sources(scale float64, maxPerCatalog int, seed uint64) []hazard.Source {
	out := make([]hazard.Source, len(datasets.EventTypes))
	for i, et := range datasets.EventTypes {
		out[i] = hazard.Source{
			Name:      et.String(),
			Events:    Events(et, scale, maxPerCatalog, seed),
			Bandwidth: et.PaperBandwidth(),
		}
	}
	return out
}

// Fit builds the world from scratch: the hazard fit (traced as
// "hazard-fit"), the census, then every configured network's assignment
// and historical PoP risks (traced as "population-assign"), fanned over
// internal/parallel one network per slot.
func Fit(cfg Config) (*World, error) {
	sources := Sources(cfg.EventScale, cfg.MaxEventsPerCatalog, cfg.Seed)
	span := cfg.Trace.Child("hazard-fit")
	model, err := hazard.Fit(sources, hazard.FitConfig{CellMiles: cfg.CellMiles, Workers: cfg.Workers,
		Lenient: cfg.Lenient, Injector: cfg.Injector, Health: cfg.Health, Metrics: cfg.Metrics,
		Trace: span, Logger: cfg.Logger})
	span.End()
	if err != nil {
		return nil, fmt.Errorf("hazard fit: %w", err)
	}
	w := newWorld(cfg, model, datasets.GenerateCensus(datasets.CensusConfig{Blocks: cfg.Blocks, Seed: cfg.Seed}))
	w.Sources = sources

	// The fan-out across networks is the parallelism; a lone network gets
	// the whole worker budget instead. Assignments are bit-identical at
	// any split.
	inner := 1
	if len(cfg.Networks) == 1 {
		inner = cfg.Workers
	}
	type stateOrErr struct {
		st  *NetworkState
		err error
	}
	span = cfg.Trace.Child("population-assign")
	slots := parallel.Map(len(cfg.Networks), cfg.Workers, func(i int) stateOrErr {
		st, err := w.assign(cfg.Networks[i], inner)
		return stateOrErr{st, err}
	})
	span.End()
	for i, sl := range slots {
		if sl.err != nil {
			return nil, sl.err
		}
		w.add(i, sl.st)
	}
	return w, nil
}

// Restore rebuilds the world a snapshot persists, after checking that it
// is the world cfg describes: same synthetic-world knobs, and every
// configured network present with an identical topology. Every mismatch,
// including state the hazard model or census cannot be rebuilt from, is
// snapshot.ErrDrift: a snapshot of a different world must never serve.
func Restore(cfg Config, snap *snapshot.World) (*World, error) {
	if err := snap.VerifyConfig(cfg.Blocks, cfg.EventScale, cfg.Seed); err != nil {
		return nil, err
	}
	model, err := RestoreModel(snap)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrDrift, err)
	}
	census, err := population.CheckedCensus(snap.Census)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrDrift, err)
	}
	w := newWorld(cfg, model, census)
	for i, net := range cfg.Networks {
		ns, err := snap.VerifyNetwork(net)
		if err != nil {
			return nil, err
		}
		w.add(i, &NetworkState{Net: net, Hist: ns.Hist, Assignment: &population.Assignment{
			Network: net, Served: ns.Served, Fractions: ns.Fractions,
		}})
	}
	return w, nil
}

// RestoreModel reconstructs the fitted hazard model a snapshot persists,
// bit-identical to the model it was baked from.
func RestoreModel(snap *snapshot.World) (*hazard.Model, error) {
	sources := make([]hazard.FittedSource, len(snap.Catalogs))
	for i, c := range snap.Catalogs {
		sources[i] = hazard.FittedSource{
			Name:      c.Name,
			Bandwidth: c.Bandwidth,
			Events:    c.Events,
			Field:     c.Field,
		}
	}
	return hazard.Restore(sources, snap.Lost, snap.Renorm)
}

func newWorld(cfg Config, model *hazard.Model, census *population.Census) *World {
	return &World{
		Cfg:      cfg,
		Model:    model,
		Census:   census,
		Networks: make([]*NetworkState, len(cfg.Networks)),
		byName:   make(map[string]*NetworkState, len(cfg.Networks)),
	}
}

func (w *World) add(i int, st *NetworkState) {
	w.Networks[i] = st
	w.byName[st.Net.Name] = st
}

func (w *World) assign(n *topology.Network, workers int) (*NetworkState, error) {
	asg, err := population.AssignWorkers(w.Census, n, workers)
	if err != nil {
		return nil, fmt.Errorf("assigning %q: %w", n.Name, err)
	}
	return &NetworkState{Net: n, Hist: w.Model.PoPRisks(n), Assignment: asg}, nil
}

// Network returns n's state, computing its assignment and historical risk
// on first use and memoizing them by network name. Configured networks are
// answered from the states Fit or Restore built. Safe for concurrent use:
// every caller gets the same slices, computed once.
func (w *World) Network(n *topology.Network) (*NetworkState, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if st, ok := w.byName[n.Name]; ok {
		return st, nil
	}
	st, err := w.assign(n, w.Cfg.Workers)
	if err != nil {
		return nil, err
	}
	w.byName[n.Name] = st
	return st, nil
}

// Snapshot captures the world as a persistable snapshot: the fitted
// catalogs with their seasonal shares, the census, and every configured
// network's vectors. Restore of the result is bit-identical to w.
func (w *World) Snapshot() (*snapshot.World, error) {
	byName := make(map[string]datasets.EventType, len(datasets.EventTypes))
	for _, et := range datasets.EventTypes {
		byName[et.String()] = et
	}
	catalogs := make([]snapshot.Catalog, len(w.Model.Sources))
	for i, src := range w.Model.Sources {
		c := snapshot.Catalog{
			Name:      src.Name,
			Bandwidth: src.Bandwidth,
			Events:    src.Events,
			Scale:     1,
			Field:     src.Field,
		}
		if et, ok := byName[src.Name]; ok {
			for s := range c.Seasonal {
				c.Seasonal[s] = datasets.SeasonalShare(et, datasets.Season(s))
			}
		}
		catalogs[i] = c
	}
	nets := make([]snapshot.NetworkState, len(w.Networks))
	for i, st := range w.Networks {
		nets[i] = snapshot.NetworkState{
			Name:      st.Net.Name,
			TopoHash:  snapshot.HashNetwork(st.Net),
			PoPs:      len(st.Net.PoPs),
			Hist:      st.Hist,
			Served:    st.Assignment.Served,
			Fractions: st.Assignment.Fractions,
		}
	}
	snap := &snapshot.World{
		Blocks:     w.Cfg.Blocks,
		EventScale: w.Cfg.EventScale,
		Seed:       w.Cfg.Seed,
		Renorm:     w.Model.Renorm(),
		Lost:       w.Model.Lost,
		Catalogs:   catalogs,
		Census:     w.Census.Blocks,
		Networks:   nets,
	}
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	return snap, nil
}
