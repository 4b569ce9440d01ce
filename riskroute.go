// Package riskroute is a from-scratch implementation of RiskRoute, the
// framework for mitigating network outage threats introduced by Eriksson,
// Durairajan, and Barford (ACM CoNEXT 2013).
//
// RiskRoute quantifies routing exposure with bit-risk miles — the geographic
// distance traffic travels plus the impact-scaled outage risk it encounters —
// and optimizes over it:
//
//   - risk-averse intradomain routing between arbitrary PoPs (Equation 3),
//   - interdomain bounds across a peering mesh (Section 6.2),
//   - provisioning: the new links or peering relationships that best reduce a
//     network's total outage risk (Equation 4, Section 6.3),
//   - disaster replays driven by parsed NHC hurricane advisories.
//
// The package is a facade over the implementation in internal/…: it exposes
// the domain types as aliases plus constructors, so downstream code never
// imports internal packages. A minimal session:
//
//	net := riskroute.BuiltinNetwork("Level3")
//	world, _ := riskroute.FitWorld(riskroute.WorldConfig{
//		Networks: []*riskroute.Network{net}, Blocks: 20000, EventScale: 1, Seed: 1,
//	})
//	st := world.Networks[0]
//	ctx := &riskroute.Context{
//		Net: net, Hist: st.Hist,
//		Fractions: st.Assignment.Fractions, Params: riskroute.PaperParams(),
//	}
//	engine, _ := riskroute.NewEngine(ctx, riskroute.Options{})
//	path := engine.RiskRoutePair(net.PoPIndex("Houston"), net.PoPIndex("Boston"))
//
// The experiments subsystem (Lab) regenerates every table and figure of the
// paper's evaluation; see EXPERIMENTS.md.
package riskroute

import (
	"io"
	"log/slog"

	"riskroute/internal/core"
	"riskroute/internal/datasets"
	"riskroute/internal/experiments"
	"riskroute/internal/forecast"
	"riskroute/internal/geo"
	"riskroute/internal/hazard"
	"riskroute/internal/ingest"
	"riskroute/internal/interdomain"
	"riskroute/internal/kde"
	"riskroute/internal/obs"
	"riskroute/internal/population"
	"riskroute/internal/resilience"
	"riskroute/internal/risk"
	"riskroute/internal/scenario"
	"riskroute/internal/serve"
	"riskroute/internal/snapshot"
	"riskroute/internal/topology"
	"riskroute/internal/world"
)

// Geographic primitives.
type (
	// Point is a latitude/longitude coordinate in decimal degrees.
	Point = geo.Point
	// Bounds is an axis-aligned geographic bounding box.
	Bounds = geo.Bounds
)

// Distance returns the great-circle distance between two points in statute
// miles.
func Distance(a, b Point) float64 { return geo.Distance(a, b) }

// ContinentalUS approximates the conterminous United States bounding box.
var ContinentalUS = geo.ContinentalUS

// Topology types.
type (
	// Network is one ISP's infrastructure map: geolocated PoPs and links.
	Network = topology.Network
	// PoP is a point of presence.
	PoP = topology.PoP
	// Link is an undirected edge between two PoP indices.
	Link = topology.Link
	// Tier classifies networks as Tier-1 or regional.
	Tier = topology.Tier
)

// Network tiers.
const (
	Tier1    = topology.Tier1
	Regional = topology.Regional
)

// ParseTopology reads networks in the native pipe-separated text format.
func ParseTopology(r io.Reader) ([]*Network, error) { return topology.Parse(r) }

// WriteTopology serializes networks in the native text format.
func WriteTopology(w io.Writer, nets []*Network) error { return topology.Write(w, nets) }

// ParseGraphML reads a Topology-Zoo-style GraphML map.
func ParseGraphML(r io.Reader, name string, tier Tier) (*Network, error) {
	return topology.ParseGraphML(r, name, tier)
}

// WriteGraphML serializes a network as Topology-Zoo-compatible GraphML.
func WriteGraphML(w io.Writer, n *Network) error { return topology.WriteGraphML(w, n) }

// BuiltinNetworks returns the embedded 23-network corpus (7 Tier-1 followed
// by 16 regional), matching the paper's Section 4.1 inventory.
func BuiltinNetworks() []*Network { return datasets.BuildNetworks() }

// BuiltinTier1 returns the seven Tier-1 networks.
func BuiltinTier1() []*Network { return datasets.Tier1Networks() }

// BuiltinRegional returns the sixteen regional networks.
func BuiltinRegional() []*Network { return datasets.RegionalNetworks() }

// BuiltinNetwork returns one embedded network by name, or nil.
func BuiltinNetwork(name string) *Network { return datasets.NetworkByName(name) }

// BuiltinPeered reports whether two embedded networks have an AS-level
// relationship in the embedded peering mesh (the paper's Figure 2).
func BuiltinPeered(a, b string) bool { return datasets.ArePeered(a, b) }

// BuiltinPeers returns the embedded peer list of a network.
func BuiltinPeers(name string) []string { return datasets.PeersOf(name) }

// Population types.
type (
	// Census is a queryable census-block collection.
	Census = population.Census
	// Block is one census block.
	Block = population.Block
	// Assignment maps census population onto a network's PoPs.
	Assignment = population.Assignment
)

// NewCensus wraps census blocks.
func NewCensus(blocks []Block) *Census { return population.NewCensus(blocks) }

// SyntheticCensus generates the synthetic continental-US census (see
// DESIGN.md for how it substitutes for the paper's 215,932-block data set).
func SyntheticCensus(blocks int, seed uint64) *Census {
	return datasets.GenerateCensus(datasets.CensusConfig{Blocks: blocks, Seed: seed})
}

// AssignPopulation distributes census population over a network's PoPs by
// nearest-neighbor matching (state-confined for regional networks).
func AssignPopulation(c *Census, n *Network) (*Assignment, error) {
	return population.Assign(c, n)
}

// AssignPopulationWorkers is AssignPopulation with an explicit worker bound
// (zero means GOMAXPROCS, one forces sequential). The assignment is
// bit-identical at every worker count.
func AssignPopulationWorkers(c *Census, n *Network, workers int) (*Assignment, error) {
	return population.AssignWorkers(c, n, workers)
}

// GravityImpact derives a gravity-model traffic matrix from an assignment —
// the paper's suggested traffic-flow alternative to the additive impact
// α_ij = c_i + c_j. Plug the result into Context.Impact.
func GravityImpact(a *Assignment) func(i, j int) float64 {
	return population.GravityImpactFunc(a)
}

// Hazard types.
type (
	// HazardModel is the aggregate historical outage risk surface o_h.
	HazardModel = hazard.Model
	// HazardSource is one disaster catalog with an optional fixed bandwidth.
	HazardSource = hazard.Source
	// HazardFitConfig controls risk-model fitting.
	HazardFitConfig = hazard.FitConfig
	// EventType identifies one synthetic disaster catalog.
	EventType = datasets.EventType
)

// The five disaster catalogs of the paper's Section 4.3.
const (
	FEMAHurricane  = datasets.FEMAHurricane
	FEMATornado    = datasets.FEMATornado
	FEMAStorm      = datasets.FEMAStorm
	NOAAEarthquake = datasets.NOAAEarthquake
	NOAAWind       = datasets.NOAAWind
)

// SyntheticEvents generates a synthetic disaster catalog (count <= 0 uses
// the paper's catalog size).
func SyntheticEvents(t EventType, count int, seed uint64) []Point {
	return datasets.GenerateEvents(t, count, seed)
}

// SyntheticHazardSources builds all five catalogs at the given scale (1.0 =
// the paper's sizes) with the paper's Table 1 bandwidths preassigned.
func SyntheticHazardSources(scale float64, seed uint64) []HazardSource {
	return world.Sources(scale, 0, seed)
}

// FitHazard fits the historical risk model (cross-validating bandwidths for
// sources that leave Bandwidth zero).
func FitHazard(sources []HazardSource, cfg HazardFitConfig) (*HazardModel, error) {
	return hazard.Fit(sources, cfg)
}

// Seasonal risk modeling (the seasonal-correlation extension the paper
// defers to future work).
type (
	// Season partitions the year (Winter..Fall).
	Season = datasets.Season
	// SeasonalHazard holds one fitted risk model per season.
	SeasonalHazard = hazard.Seasonal
	// HazardWeights emphasizes individual catalogs in the aggregate risk.
	HazardWeights = hazard.Weights
)

// The four meteorological seasons.
const (
	Winter = datasets.Winter
	Spring = datasets.Spring
	Summer = datasets.Summer
	Fall   = datasets.Fall
)

// SyntheticSeasonalSources builds per-season catalogs for all five event
// types at the given annual scale, with density scales set to each season's
// relative event rate so the fitted surfaces carry seasonal intensity.
func SyntheticSeasonalSources(scale float64, seed uint64) [4][]HazardSource {
	if scale <= 0 {
		scale = 1
	}
	var out [4][]HazardSource
	for si, season := range datasets.Seasons {
		for _, et := range datasets.EventTypes {
			annual := int(float64(et.PaperCount()) * scale)
			if annual < 200 {
				annual = 200
			}
			out[si] = append(out[si], HazardSource{
				Name:      et.String(),
				Events:    datasets.GenerateSeasonalEvents(et, season, annual, seed),
				Bandwidth: et.PaperBandwidth(),
				Scale:     4 * datasets.SeasonalShare(et, season),
			})
		}
	}
	return out
}

// FitSeasonalHazard fits one risk model per season.
func FitSeasonalHazard(sourcesBySeason [4][]HazardSource, cfg HazardFitConfig) (*SeasonalHazard, error) {
	return hazard.FitSeasonal(sourcesBySeason, cfg)
}

// SharedRiskResult scores the co-located outage exposure of two networks.
type SharedRiskResult = interdomain.SharedRiskResult

// SharedRisk quantifies how much of two networks' disaster exposure is
// co-located (the paper's future-work "shared risk between multiple ISPs").
func SharedRisk(a, b *Network, model *HazardModel, radiusMiles float64) SharedRiskResult {
	return interdomain.SharedRisk(a, b, model, radiusMiles)
}

// SharedRiskMatrix scores every unordered network pair, sorted by
// descending normalized overlap.
func SharedRiskMatrix(nets []*Network, model *HazardModel, radiusMiles float64) ([]SharedRiskResult, error) {
	return interdomain.SharedRiskMatrix(nets, model, radiusMiles)
}

// Protection and weight-export types (the paper's Section 3 integrations).
type (
	// BackupRoute is one failure case's protection path.
	BackupRoute = core.BackupRoute
	// OSPFExport is a composite link-weight configuration.
	OSPFExport = core.OSPFExport
	// OSPFWeight is one exported link weight.
	OSPFWeight = core.OSPFWeight
	// OutageImpact summarizes a simulated multi-PoP failure.
	OutageImpact = core.OutageImpact
	// ForwardingEntry is one destination's next hop + loop-free alternate
	// (RFC 5714 IP Fast Reroute state priced by RiskRoute).
	ForwardingEntry = core.ForwardingEntry
)

// Routing types.
type (
	// Params are the bit-risk tuning parameters λ_h and λ_f.
	Params = risk.Params
	// Context binds a network to its risk, forecast, and impact data.
	Context = risk.Context
	// Engine answers RiskRoute queries.
	Engine = core.Engine
	// Options tune the engine.
	Options = core.Options
	// Ratios aggregates the risk-reduction and distance-increase ratios.
	Ratios = core.Ratios
	// PairResult describes one routed pair.
	PairResult = core.PairResult
	// Candidate is a scored candidate link of the robustness analysis.
	Candidate = core.Candidate
	// Addition is one step of the greedy link-addition sweep.
	Addition = core.Addition
)

// Attribution types: per-edge, per-layer route explanations whose parts
// re-sum bit-identically to the engine's route costs (see DESIGN.md §12).
type (
	// Explanation decomposes one priced path edge-by-edge; its Cost equals
	// RiskRoutePair's BitRiskMiles bit for bit.
	Explanation = core.Explanation
	// EdgeAttribution is one traversed edge's share of a route cost,
	// decomposed into miles, base-hazard, forecast, and span layers.
	EdgeAttribution = core.EdgeAttribution
	// EdgeReport is one link of the network-wide top-k riskiest-edges report.
	EdgeReport = core.EdgeReport
	// HazardProbe explains the fitted hazard field at a point: the aggregate
	// risk (bit-identical to HazardModel.RiskAt) plus per-catalog
	// contributions and interpolation stencils.
	HazardProbe = hazard.Probe
	// HazardSourceProbe is one catalog's contribution at a probed point.
	HazardSourceProbe = hazard.SourceProbe
	// FieldSample is a rasterized field's bilinear interpolation stencil at
	// a point (kde.Field.Sample).
	FieldSample = kde.PointSample
)

// PaperParams returns the paper's tuning parameters (λ_h = 10⁵, λ_f = 10³).
func PaperParams() Params { return risk.PaperParams() }

// NewEngine validates the context and builds a routing engine.
func NewEngine(ctx *Context, opts Options) (*Engine, error) { return core.New(ctx, opts) }

// Forecast types.
type (
	// Advisory is one parsed NHC public advisory.
	Advisory = forecast.Advisory
	// ForecastModel maps advisories to forecasted outage risk o_f.
	ForecastModel = forecast.RiskModel
	// Replay is a storm's parsed advisory sequence.
	Replay = forecast.Replay
	// StormScope is a storm's cumulative wind-field footprint.
	StormScope = forecast.Scope
	// BestTrack is an embedded hurricane track.
	BestTrack = datasets.BestTrack
)

// ScopeMembership classifies a point against a storm's cumulative scope.
type ScopeMembership = forecast.Membership

// Scope membership values.
const (
	OutsideScope        = forecast.Outside
	TropicalForceScope  = forecast.TropicalForce
	HurricaneForceScope = forecast.HurricaneForce
)

// DefaultForecastModel returns the paper's ρ_t = 50, ρ_h = 100.
func DefaultForecastModel() ForecastModel { return forecast.DefaultRiskModel() }

// ParseAdvisory extracts storm state from NHC advisory text.
func ParseAdvisory(text string) (*Advisory, error) { return forecast.ParseAdvisory(text) }

// Hurricanes lists the embedded storms: Irene, Katrina, Sandy.
func Hurricanes() []BestTrack { return append([]BestTrack(nil), datasets.Hurricanes...) }

// HurricaneByName returns an embedded storm track, or nil.
func HurricaneByName(name string) *BestTrack { return datasets.HurricaneByName(name) }

// LoadHurricaneReplay generates the storm's advisory text corpus and parses
// it back, exercising the full NLP path.
func LoadHurricaneReplay(track *BestTrack) (*Replay, error) { return forecast.LoadReplay(track) }

// AdvisoryCorpus renders a storm's advisory bulletins as text.
func AdvisoryCorpus(track *BestTrack) []string { return forecast.GenerateCorpus(track) }

// ScopeOf collects a replay's cumulative wind-field scope.
func ScopeOf(r *Replay) *StormScope { return forecast.ScopeOf(r) }

// Interdomain types.
type (
	// Composite is a multi-network routing graph joined at peering points.
	Composite = interdomain.Composite
	// InterdomainAnalysis wires a composite to the routing engine.
	InterdomainAnalysis = interdomain.Analysis
	// PeeringChoice scores one candidate peer.
	PeeringChoice = interdomain.PeeringChoice
)

// BuildComposite merges networks, joining co-located PoPs of peered pairs.
func BuildComposite(nets []*Network, peered func(a, b string) bool) (*Composite, error) {
	return interdomain.Build(nets, peered)
}

// NewInterdomainAnalysis builds the interdomain risk context and engine.
func NewInterdomainAnalysis(comp *Composite, model *HazardModel, census *Census,
	fc []float64, params Params, opts Options) (*InterdomainAnalysis, error) {
	return interdomain.NewAnalysis(comp, model, census, fc, params, opts)
}

// CandidatePeers lists co-located, unpeered networks for a target network.
func CandidatePeers(nets []*Network, name string, peered func(a, b string) bool) []string {
	return interdomain.CandidatePeers(nets, name, peered)
}

// BestNewPeering scores every candidate peer by the interdomain lower-bound
// bit-risk objective (the paper's Figure 11 analysis).
func BestNewPeering(nets []*Network, peered func(a, b string) bool, name string,
	destNetworks []string, model *HazardModel, census *Census,
	params Params, opts Options) ([]PeeringChoice, error) {
	return interdomain.BestNewPeering(nets, peered, name, destNetworks, model, census, params, opts)
}

// Resilience: fault injection, typed failure taxonomy, and degraded-mode
// health reporting (see DESIGN.md, "Failure semantics and degraded mode").
type (
	// Injector is a deterministic, seeded fault-injection harness. A nil
	// Injector is inert, so production paths pass it unconditionally.
	Injector = resilience.Injector
	// PipelineHealth collects per-stage checkpoints and degradations across
	// a pipeline run.
	PipelineHealth = resilience.Health
	// HealthEvent is one recorded pipeline checkpoint or degradation.
	HealthEvent = resilience.Event
	// InjectionPoint names a pipeline stage faults can target.
	InjectionPoint = resilience.Point
	// FaultMode selects how an injected fault manifests.
	FaultMode = resilience.Mode
	// ValidationError is a positional input-validation failure
	// (source, line, field).
	ValidationError = resilience.ValidationError
	// DegradedError reports a stage that completed at reduced fidelity
	// beyond what lenient mode tolerates.
	DegradedError = resilience.DegradedError
)

// Error classes, matched with errors.Is.
var (
	// ErrValidation matches every ValidationError.
	ErrValidation = resilience.ErrValidation
	// ErrDegraded matches every DegradedError.
	ErrDegraded = resilience.ErrDegraded
	// ErrInjected matches errors forced by an Injector.
	ErrInjected = resilience.ErrInjected
)

// The pipeline's named injection points.
const (
	InjectTopologyParse = resilience.PointTopologyParse
	InjectAdvisoryParse = resilience.PointAdvisoryParse
	InjectKDEFit        = resilience.PointKDEFit
	InjectEngineBuild   = resilience.PointEngineBuild
	InjectDijkstraSweep = resilience.PointDijkstraSweep
	InjectServeParse    = resilience.PointServeParse
	InjectServeSwap     = resilience.PointServeSwap
	InjectServeRoute    = resilience.PointServeRoute
	InjectIngestPoll    = resilience.PointIngestPoll
	InjectIngestJournal = resilience.PointIngestJournal
	InjectIngestSwap    = resilience.PointIngestSwap
)

// PostSwapKeyOffset shifts an InjectIngestSwap key into the post-publish
// verification key space (see resilience.PostSwapKeyOffset).
const PostSwapKeyOffset = resilience.PostSwapKeyOffset

// Fault modes.
const (
	FaultCorrupt    = resilience.Corrupt
	FaultTruncate   = resilience.Truncate
	FaultDrop       = resilience.Drop
	FaultForceError = resilience.ForceError
)

// NewInjector returns an inactive injector; arm it with Enable/EnableKeys.
// The same seed and rules always fire on the same inputs.
func NewInjector(seed uint64) *Injector { return resilience.NewInjector(seed) }

// NewPipelineHealth returns an empty health report.
func NewPipelineHealth() *PipelineHealth { return resilience.NewHealth() }

// ParseTopologyLenient reads networks in the native format, skipping and
// recording corrupt lines instead of failing, and keeping disconnected
// networks (the engine then routes within components). inj and health may be
// nil.
func ParseTopologyLenient(r io.Reader, inj *Injector, health *PipelineHealth) ([]*Network, error) {
	return topology.ParseLenient(r, inj, health)
}

// ParseGraphMLLenient reads a GraphML map, dropping and recording malformed
// nodes and edges instead of failing.
func ParseGraphMLLenient(r io.Reader, name string, tier Tier, health *PipelineHealth) (*Network, error) {
	return topology.ParseGraphMLLenient(r, name, tier, health)
}

// ParseAdvisoryLenient parses advisory text, zeroing and recording malformed
// optional fields (movement, winds, hurricane radius) instead of failing;
// corrupt required fields still error.
func ParseAdvisoryLenient(text string) (*Advisory, []*ValidationError, error) {
	return forecast.ParseAdvisoryLenient(text)
}

// LoadHurricaneReplayLenient is LoadHurricaneReplay with carry-forward: an
// advisory that fails to parse (or is knocked out by inj) is replaced by the
// last-known storm state, marked Carried, and recorded in health.
func LoadHurricaneReplayLenient(track *BestTrack, inj *Injector, health *PipelineHealth) (*Replay, error) {
	return forecast.LoadReplayLenient(track, inj, health)
}

// CheckTopology lenient-parses a topology stream purely for diagnosis and
// returns the surviving networks with the health report of the parse.
func CheckTopology(r io.Reader) ([]*Network, *PipelineHealth, error) {
	h := NewPipelineHealth()
	nets, err := topology.ParseLenient(r, nil, h)
	return nets, h, err
}

// CheckAdvisoryCorpus lenient-parses a storm's advisory corpus — optionally
// under injected faults — and returns the replay with the health report.
func CheckAdvisoryCorpus(storm string, texts []string, inj *Injector) (*Replay, *PipelineHealth, error) {
	h := NewPipelineHealth()
	r, err := forecast.ParseCorpusLenient(storm, texts, inj, h)
	return r, h, err
}

// Telemetry: the stdlib-only observability layer (see DESIGN.md,
// "Observability"). A nil *Metrics registry hands out nil handles and a nil
// *Span ignores all operations, so instrumented pipelines thread telemetry
// unconditionally and disabled telemetry costs only nil checks.
type (
	// Metrics is a concurrency-safe registry of counters, gauges, and
	// fixed-bucket histograms.
	Metrics = obs.Registry
	// Span is one timed stage of a pipeline run; spans form a per-run tree.
	Span = obs.Span
	// SpanSnapshot is a span tree frozen for export.
	SpanSnapshot = obs.SpanSnapshot
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = obs.Snapshot
	// TelemetryReport bundles a trace tree with a metrics snapshot.
	TelemetryReport = obs.Report
	// DebugServer is a running opt-in debug HTTP listener.
	DebugServer = obs.DebugServer
	// FlightRecorder is a bounded ring of the most recent log records,
	// dumped by the run ledger when a run fails.
	FlightRecorder = obs.FlightRecorder
	// RunLedger accumulates one run's manifest (config, input checksums,
	// stage timings, metrics, degraded events) and writes it at Finish.
	RunLedger = obs.Ledger
	// RunManifest is the durable record a RunLedger writes.
	RunManifest = obs.Manifest
	// RunInputChecksum records one input dataset's SHA-256 identity.
	RunInputChecksum = obs.InputChecksum
	// RunEvent is one degraded-mode event carried into a manifest.
	RunEvent = obs.LedgerEvent
	// ChromeTrace is a span tree serialized as Chrome trace-event JSON.
	ChromeTrace = obs.ChromeTrace
	// Histogram is a concurrency-safe fixed-bucket distribution; Quantile
	// estimates percentiles by linear interpolation within a bucket.
	Histogram = obs.Histogram
	// SLOConfig tunes a burn-rate SLO engine (latency and error-ratio
	// objectives over rolling windows).
	SLOConfig = obs.SLOConfig
	// SLOEngine tracks rolling multi-window burn rates.
	SLOEngine = obs.SLO
	// SLOSnapshot is one SLO engine report (the /v1/slo document).
	SLOSnapshot = obs.SLOSnapshot
	// RequestIDs generates request identifiers, deterministic when seeded.
	RequestIDs = obs.RequestIDs
)

// NewHistogram returns a standalone histogram with the given bucket bounds
// (sorted ascending) — no registry required.
func NewHistogram(bounds []float64) *Histogram { return obs.NewHistogram(bounds) }

// NewSLO builds a burn-rate SLO engine (zero config = 100ms @ 99%, 99.9%
// availability, 5m/1h windows).
func NewSLO(cfg SLOConfig) *SLOEngine { return obs.NewSLO(cfg) }

// NewRequestIDs returns a request-ID generator; a non-zero seed pins the
// exact ID sequence.
func NewRequestIDs(seed uint64) *RequestIDs { return obs.NewRequestIDs(seed) }

// WriteProm renders a metrics snapshot in Prometheus text exposition format
// 0.0.4 (byte-deterministic for a fixed snapshot).
func WriteProm(w io.Writer, s MetricsSnapshot) error { return s.WriteProm(w) }

// NewMetrics returns an empty telemetry registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewTrace starts a root span for one pipeline run.
func NewTrace(name string) *Span { return obs.NewTrace(name) }

// CaptureRuntime records the Go runtime's vital signs into the registry.
func CaptureRuntime(r *Metrics) { obs.CaptureRuntime(r) }

// BuildTelemetryReport snapshots a registry and a trace (either may be nil).
func BuildTelemetryReport(r *Metrics, trace *Span) TelemetryReport {
	return obs.BuildReport(r, trace)
}

// StartCPUProfile begins a CPU profile written to path; call the returned
// stop function to finish it.
func StartCPUProfile(path string) (stop func() error, err error) {
	return obs.StartCPUProfile(path)
}

// WriteHeapProfile dumps a heap profile to path (after a GC).
func WriteHeapProfile(path string) error { return obs.WriteHeapProfile(path) }

// ServeDebug starts the opt-in debug HTTP listener (expvar, net/http/pprof,
// /telemetry) on addr.
func ServeDebug(addr string, r *Metrics) (*DebugServer, error) {
	return obs.ServeDebug(addr, r)
}

// NewLogger builds a structured logger for the given format ("text",
// "json", or "off"); "off" returns the shared no-op logger.
func NewLogger(format string, w io.Writer) (*slog.Logger, error) {
	return obs.NewLogger(format, w)
}

// NewLogHandler builds the slog.Handler behind NewLogger, for callers that
// compose handlers (e.g. FlightRecorder.Wrap).
func NewLogHandler(format string, w io.Writer) (slog.Handler, error) {
	return obs.NewLogHandler(format, w)
}

// NopLogger returns the shared disabled logger: always safe to call, every
// record discarded before formatting.
func NopLogger() *slog.Logger { return obs.NopLogger() }

// NewFlightRecorder returns a ring retaining the last n log records
// (n <= 0 uses the obs default of 256).
func NewFlightRecorder(n int) *FlightRecorder { return obs.NewFlightRecorder(n) }

// NewRunLedger creates runs/<runID>/ under root and returns the run's
// ledger.
func NewRunLedger(root, command string, args []string) (*RunLedger, error) {
	return obs.NewLedger(root, command, args)
}

// ReadRunManifest loads a run directory's manifest.json back.
func ReadRunManifest(dir string) (*RunManifest, error) { return obs.ReadManifest(dir) }

// WriteChromeTrace serializes a span snapshot as Chrome trace-event JSON
// (loadable in Perfetto and chrome://tracing).
func WriteChromeTrace(w io.Writer, ss SpanSnapshot) error {
	return obs.WriteChromeTrace(w, ss)
}

// ExportChromeTrace writes a span tree's Chrome trace JSON to path.
func ExportChromeTrace(path string, s *Span) error { return obs.ExportChromeTrace(path, s) }

// LatencyBuckets returns the default duration histogram bounds in seconds.
func LatencyBuckets() []float64 { return obs.LatencyBuckets() }

// SizeBuckets returns the default size/count histogram bounds.
func SizeBuckets() []float64 { return obs.SizeBuckets() }

// Online serving: the long-lived daemon behind cmd/riskrouted (see
// DESIGN.md, "Serving architecture"). A Server warms the hazard and
// population world once, then answers route/ratio/risk queries from an
// immutable engine snapshot and hot-swaps that snapshot — atomically, with
// a monotonic generation counter — as NHC advisories are ingested.
type (
	// ServeConfig tunes the serving daemon (synthetic-world knobs default
	// to the batch CLI's, so served costs match `riskroute route` exactly).
	ServeConfig = serve.Config
	// Server is the online RiskRoute daemon.
	Server = serve.Server
	// SwapEvent is one generation's lifecycle record on the swap timeline
	// (the /v1/generations document).
	SwapEvent = serve.SwapEvent
)

// NewServer warms the serving world and publishes generation 1. The
// returned server's Handler is ready to mount on any net/http listener.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// World snapshot persistence: `riskroute bake` captures the fitted world
// (hazard surfaces, census, per-network assignments and historical risks)
// into a versioned, per-section SHA-256-checksummed binary file, and
// `riskrouted -world-snapshot` boots from it in milliseconds, bit-identical
// to a fresh fit (see DESIGN.md, "World snapshot persistence").
type (
	// WorldSnapshot is a baked serving world (internal/snapshot.World).
	WorldSnapshot = snapshot.World
	// WorldSnapshotCatalog is one persisted fitted hazard catalog.
	WorldSnapshotCatalog = snapshot.Catalog
	// WorldSnapshotNetwork is one network's baked serving vectors.
	WorldSnapshotNetwork = snapshot.NetworkState
	// WorldSnapshotLoadOptions tunes snapshot loading (fan-out + telemetry).
	WorldSnapshotLoadOptions = snapshot.LoadOptions
	// WorldSnapshotLoadStats reports what a successful load did.
	WorldSnapshotLoadStats = snapshot.LoadStats
	// ServeBootInfo reports which path booted a serving world (the /v1/readyz
	// "boot" object): snapshot digest + load time, or full-fit time.
	ServeBootInfo = serve.BootInfo
)

// Typed world-snapshot load failures, for callers that distinguish "wrong
// file" from "right file, wrong bytes" from "right bytes, wrong world".
var (
	ErrSnapshotNotSnapshot = snapshot.ErrNotSnapshot
	ErrSnapshotVersion     = snapshot.ErrVersion
	ErrSnapshotTruncated   = snapshot.ErrTruncated
	ErrSnapshotChecksum    = snapshot.ErrChecksum
	ErrSnapshotFormat      = snapshot.ErrFormat
	ErrSnapshotDrift       = snapshot.ErrDrift
)

// BakeServeWorld runs the full fit pipeline for cfg and captures its output
// as a persistable world snapshot. It shares the serving boot's pipeline, so
// a daemon booting from the baked file serves generation 1 bit-identical to
// one that fitted from scratch with the same configuration.
func BakeServeWorld(cfg ServeConfig) (*WorldSnapshot, error) { return serve.BakeWorld(cfg) }

// WriteWorldSnapshot encodes a baked world to w (byte-deterministic) and
// returns its digest.
func WriteWorldSnapshot(w io.Writer, world *WorldSnapshot) (string, error) {
	return snapshot.Write(w, world)
}

// WriteWorldSnapshotFile bakes a world to path atomically (temp file +
// rename) and returns the snapshot digest.
func WriteWorldSnapshotFile(path string, world *WorldSnapshot) (string, error) {
	return snapshot.WriteFile(path, world)
}

// LoadWorldSnapshot reads and verifies a baked world, fanning checksum
// verification and bulk decoding over opt.Workers.
func LoadWorldSnapshot(path string, opt WorldSnapshotLoadOptions) (*WorldSnapshot, *WorldSnapshotLoadStats, error) {
	return snapshot.Load(path, opt)
}

// RestoreHazardModel reconstructs the fitted hazard model a snapshot
// persists — bit-identical to the model it was baked from.
func RestoreHazardModel(w *WorldSnapshot) (*HazardModel, error) { return world.RestoreModel(w) }

// The shared world: the hazard fit, the synthetic census, and per-network
// assignments and historical PoP risks, built by one pipeline whether
// fitted from scratch or restored from a baked snapshot.
type (
	// World is a fitted or restored world (internal/world.World).
	World = world.World
	// WorldConfig describes a world; it applies no defaults of its own.
	WorldConfig = world.Config
)

// FitWorld fits the hazard model and census, then assigns every configured
// network.
func FitWorld(cfg WorldConfig) (*World, error) { return world.Fit(cfg) }

// RestoreWorld rebuilds a baked world after verifying it matches cfg; every
// mismatch is ErrSnapshotDrift.
func RestoreWorld(cfg WorldConfig, w *WorldSnapshot) (*World, error) { return world.Restore(cfg, w) }

// HashNetworkTopology computes a network's topology identity hash — the
// exact-bit fingerprint world snapshots verify against at load time.
func HashNetworkTopology(n *Network) [32]byte { return snapshot.HashNetwork(n) }

// Continuous advisory ingestion: the crash-safe feed poller behind
// riskrouted's -advisory-feed / -journal-dir flags (see DESIGN.md,
// "Continuous ingestion and crash recovery"). The poller journals every
// accepted advisory before swapping it into the serving world, so a killed
// process recovers to the exact pre-crash generation by replay at boot.
type (
	// IngestConfig tunes the advisory feed poller.
	IngestConfig = ingest.Config
	// IngestPoller is the continuous ingestion engine.
	IngestPoller = ingest.Poller
	// IngestStatus is the lifecycle document served at /v1/ingest.
	IngestStatus = ingest.Status
	// IngestSource is one advisory feed (directory or HTTP).
	IngestSource = ingest.Source
)

// NewIngestPoller opens (or creates) the advisory journal and builds the
// poller around a serving surface — normally a *Server. Call Recover before
// Run.
func NewIngestPoller(cfg IngestConfig, sw ingest.Swapper) (*IngestPoller, error) {
	return ingest.NewPoller(cfg, sw)
}

// NewIngestSource builds an advisory feed from a spec: "http(s)://..."
// polls a URL serving the latest bulletin, anything else watches a
// directory for *.txt advisory files.
func NewIngestSource(spec string) (IngestSource, error) { return ingest.NewSource(spec) }

// Scenario ensembles: seeded Monte-Carlo disaster generation (perturbed and
// synthetic hurricane tracks, geometric line cuts and disk outages,
// EMP-style correlated regional failures) swept into per-network outage-risk
// distributions. See DESIGN.md, "Scenario ensembles".
type (
	// ScenarioFamily identifies one scenario-generation model.
	ScenarioFamily = scenario.Family
	// ScenarioSpec pairs a family with its ensemble count.
	ScenarioSpec = scenario.FamilySpec
	// Scenario is one generated disaster.
	Scenario = scenario.Scenario
	// ScenarioConfig parameterizes ensemble generation.
	ScenarioConfig = scenario.Config
	// TrackPerturbation is the PerturbedTrack jitter magnitudes; the zero
	// value reproduces the base replay bit-identically.
	TrackPerturbation = scenario.Perturbation
	// ScenarioOverlay is a scenario compiled against one network.
	ScenarioOverlay = scenario.Overlay
	// EnsembleWorld binds one network to its static risk inputs.
	EnsembleWorld = scenario.World
	// EnsembleConfig tunes ensemble evaluation.
	EnsembleConfig = scenario.SweepConfig
	// EnsembleReport is a full sweep's per-network distributions.
	EnsembleReport = scenario.Report
	// EnsembleDistribution summarizes one metric across an ensemble.
	EnsembleDistribution = scenario.Distribution
)

// Scenario families.
const (
	ScenarioPerturbedTrack  = scenario.PerturbedTrack
	ScenarioGenesisTrack    = scenario.GenesisTrack
	ScenarioLineCut         = scenario.LineCut
	ScenarioDiskOutage      = scenario.DiskOutage
	ScenarioRegionalFailure = scenario.RegionalFailure
)

// ScenarioFamilies lists all families in declaration order.
func ScenarioFamilies() []ScenarioFamily { return scenario.Families() }

// ParseScenarioSpec parses an ensemble composition, e.g.
// "track=300,cut=250,regional=150".
func ParseScenarioSpec(s string) ([]ScenarioSpec, error) { return scenario.ParseSpec(s) }

// FormatScenarioSpec renders specs back into ParseScenarioSpec's format.
func FormatScenarioSpec(specs []ScenarioSpec) string { return scenario.FormatSpec(specs) }

// DefaultTrackPerturbation returns the standard ensemble jitter.
func DefaultTrackPerturbation() TrackPerturbation { return scenario.DefaultPerturbation() }

// GenerateScenarios draws the ensemble cfg describes — a pure function of
// the seed and parameters.
func GenerateScenarios(cfg ScenarioConfig) ([]*Scenario, error) { return scenario.Generate(cfg) }

// SweepEnsemble evaluates every scenario against every world; reports are
// bit-identical at any worker count.
func SweepEnsemble(scenarios []*Scenario, worlds []EnsembleWorld, cfg EnsembleConfig) (*EnsembleReport, error) {
	return scenario.Sweep(scenarios, worlds, cfg)
}

// Experiments (paper reproduction harness).
type (
	// Lab is the shared experimental world regenerating the paper's tables
	// and figures.
	Lab = experiments.Lab
	// LabConfig scales the experiment world.
	LabConfig = experiments.Config
)

// NewLab generates the experiment world (zero config = paper scale).
func NewLab(cfg LabConfig) (*Lab, error) { return experiments.NewLab(cfg) }
