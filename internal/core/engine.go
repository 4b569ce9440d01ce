// Package core implements the RiskRoute optimization framework (Section 6
// of the paper): minimum bit-risk-mile routing between arbitrary PoPs
// (Equation 3), the aggregated risk-reduction and distance-increase ratios
// against shortest-path routing (Equations 5 and 6), and the robustness
// analysis that finds the additional links best reducing a network's total
// bit-risk miles (Equation 4, single and greedy-k).
//
// # One shared topology, a slope vector per engine, and α quantization
//
// The metric's impact factor α_ij = c_i + c_j depends on the endpoint pair,
// so edge weights are pair-dependent: a fresh shortest-path problem per
// pair. But α enters as a single scalar multiplier, so every weight is
// miles + α·risk, and a scenario, an advisory or a λ override changes only
// the risk. A Topology (NewTopology) holds the risk-independent half, built
// once per network: link miles (one haversine per link), the adjacency
// (graph.Graph and its flattened graph.CSR) and the components. An engine
// (Topology.New) is that shared topology plus its own slope vector — the
// α-independent risk risk.Context.EdgeRisk per half-edge — so building one
// costs O(E) arithmetic and no graph build. It routes every α on the
// topology: RiskRoutePair and Explain search at the pair's exact α,
// ShortestPair at α = 0, and pair pricing reads the topology's miles.
// Topologies and engines are immutable and safe for concurrent callers;
// any number of engines share one topology. Topology.Without is the pruned
// topology of a regional failure, reusing the parent's miles.
//
// The all-pairs evaluations quantize α into a small number of buckets: one
// Dijkstra sweep per source and bucket serves every pair whose α falls in
// the bucket, and each pair's cost is evaluated at its exact α. Exact
// per-pair search is available for verification (EvaluateExact) and agrees
// with the quantized path within the bucket width; the property is pinned
// by tests.
package core

import (
	"fmt"
	"log/slog"
	"math"
	"slices"
	"time"

	"riskroute/internal/graph"
	"riskroute/internal/obs"
	"riskroute/internal/parallel"
	"riskroute/internal/resilience"
	"riskroute/internal/risk"
)

// Options tune the engine.
type Options struct {
	// AlphaBuckets is the number of quantization levels for the impact
	// factor α used by the all-pairs sweeps (default 16). More buckets cost
	// more Dijkstra sweeps but track per-pair optima more closely.
	AlphaBuckets int
	// CandidateReduction is the bit-mile reduction a direct link must
	// achieve for its PoP pair to enter the robustness candidate set E_C.
	// The paper's rule is "more than 50% reduction" (0.5, the default),
	// which excludes impractical cross-country links.
	CandidateReduction float64
	// Workers bounds the goroutines used by the all-pairs evaluations
	// (Evaluate, TotalBitRisk and friends). Zero means GOMAXPROCS; 1 forces
	// sequential execution. Results are identical at any worker count: each
	// source's partial sums are reduced in source order.
	Workers int
	// Injector, when non-nil, is consulted at PointEngineBuild (key 0) and
	// at PointDijkstraSweep keyed by source PoP index: a faulted source's
	// sweep is skipped and recorded rather than aborting the evaluation.
	Injector *resilience.Injector
	// Health receives build checkpoints (component count, unreachable
	// pairs on fragmented topologies) and sweep degradations.
	Health *resilience.Health
	// Metrics, when non-nil, receives engine telemetry under core.engine.*
	// and core.sweep.* (build timings, per-source sweep durations,
	// pair counts, worker gauge). Handles are resolved once at build; the
	// sweep inner loops stay untouched, so disabled telemetry costs nothing
	// and enabled telemetry stays within the ≤2% Evaluate budget.
	Metrics *obs.Registry
	// Trace, when non-nil, is the parent span under which the engine opens
	// "engine-build" and per-evaluation "sweep" children.
	Trace *obs.Span
	// Logger, when non-nil, receives one structured record per engine build
	// and per all-pairs sweep. Nil is fine; the engine logs through
	// LoggerOrNop, and nothing inside the sweep inner loops logs.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.AlphaBuckets == 0 {
		o.AlphaBuckets = 16
	}
	if o.CandidateReduction == 0 {
		o.CandidateReduction = 0.5
	}
	return o
}

// engineObs caches the engine's metric handles, resolved once at build so
// evaluations never take the registry lock. The zero value (nil handles, the
// telemetry-disabled state) no-ops everywhere.
type engineObs struct {
	buildSeconds  *obs.Histogram // core.engine.build_seconds
	sourceSeconds *obs.Histogram // core.sweep.source_seconds (one sweep per source)
	pairs         *obs.Counter   // core.sweep.pairs_total
	skippedSweeps *obs.Counter   // core.sweep.skipped_total
	evaluations   *obs.Counter   // core.engine.evaluations_total
	workers       *obs.Gauge     // core.sweep.workers
	unreachable   *obs.Gauge     // core.engine.unreachable_pairs
	alphaBuckets  *obs.Gauge     // core.engine.alpha_buckets
}

func newEngineObs(r *obs.Registry) engineObs {
	if r == nil {
		return engineObs{}
	}
	return engineObs{
		buildSeconds:  r.Histogram("core.engine.build_seconds", obs.LatencyBuckets()),
		sourceSeconds: r.Histogram("core.sweep.source_seconds", obs.LatencyBuckets()),
		pairs:         r.Counter("core.sweep.pairs_total"),
		skippedSweeps: r.Counter("core.sweep.skipped_total"),
		evaluations:   r.Counter("core.engine.evaluations_total"),
		workers:       r.Gauge("core.sweep.workers"),
		unreachable:   r.Gauge("core.engine.unreachable_pairs"),
		alphaBuckets:  r.Gauge("core.engine.alpha_buckets"),
	}
}

// Engine answers RiskRoute queries for one risk context. It is immutable
// after New, so concurrent callers share it without locks.
type Engine struct {
	Ctx  *risk.Context
	opts Options
	tel  engineObs
	lg   *slog.Logger // never nil (LoggerOrNop at build)

	topo  *Topology
	slope []float64 // EdgeRisk per half-edge of topo.csr

	alphaLo, alphaHi float64
	logBuckets       bool      // log-spaced quantization for skewed α
	buckets          []float64 // representative α per bucket
}

// New builds an engine after validating the context: NewTopology(ctx.Net)
// followed by Topology.New.
func New(ctx *risk.Context, opts Options) (*Engine, error) {
	return NewTopology(ctx.Net).New(ctx, opts)
}

// New builds an engine over the topology after validating the context,
// whose Net must be the topology's network. The topology is shared, not
// copied: the engine adds only its slope vector (ctx.EdgeRisk per
// half-edge) and its α quantization.
func (t *Topology) New(ctx *risk.Context, opts Options) (*Engine, error) {
	if err := opts.Injector.ForcedError(resilience.PointEngineBuild, 0); err != nil {
		return nil, err
	}
	build := opts.Trace.Child("engine-build")
	defer build.End()
	if ctx.Net != t.net {
		return nil, fmt.Errorf("core: context network %q is not the topology's %q", ctx.Net.Name, t.net.Name)
	}
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if len(ctx.Net.PoPs) < 2 {
		return nil, fmt.Errorf("core: network %q has fewer than two PoPs", ctx.Net.Name)
	}
	opts = opts.withDefaults()

	var alphaLo, alphaHi float64
	if ctx.Impact != nil {
		// Arbitrary impact override: scan all pairs for the true range.
		alphaLo, alphaHi = math.Inf(1), math.Inf(-1)
		n := len(ctx.Net.PoPs)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a := ctx.Alpha(i, j)
				if a < 0 || math.IsNaN(a) || math.IsInf(a, 1) {
					return nil, fmt.Errorf("core: negative or non-finite impact %v for pair (%d,%d)", a, i, j)
				}
				if a < alphaLo {
					alphaLo = a
				}
				if a > alphaHi {
					alphaHi = a
				}
			}
		}
	} else {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, f := range ctx.Fractions {
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		alphaLo, alphaHi = 2*lo, 2*hi
	}
	e := &Engine{
		Ctx:     ctx,
		opts:    opts,
		tel:     newEngineObs(opts.Metrics),
		lg:      obs.LoggerOrNop(opts.Logger),
		topo:    t,
		slope:   t.csr.Vector(ctx.EdgeRisk),
		alphaLo: alphaLo,
		alphaHi: alphaHi,
	}

	// Fragmented topologies (a lenient parse can keep them) still route
	// within each component; cross-component pairs are unreachable and the
	// evaluations skip them. Surface the fact rather than failing the build.
	if t.components > 1 {
		n := len(ctx.Net.PoPs)
		opts.Health.Degrade("engine", nil,
			"network %q has %d components: %d of %d PoP pairs unreachable",
			ctx.Net.Name, t.components, t.unreachable, n*(n-1)/2)
	} else {
		opts.Health.Record("engine", "built over %d PoPs, %d links",
			len(ctx.Net.PoPs), len(ctx.Net.Links))
	}

	k := opts.AlphaBuckets
	if e.alphaHi <= e.alphaLo {
		k = 1 // all pairs share one α
	}
	// Skewed impact distributions (e.g. gravity-model traffic matrices)
	// spread α over orders of magnitude; log-spaced buckets keep the
	// relative quantization error bounded there, while linear spacing
	// serves the paper's additive α = c_i + c_j well.
	if k > 1 && e.alphaLo > 0 && e.alphaHi/e.alphaLo > 32 {
		e.logBuckets = true
	}
	e.buckets = make([]float64, k)
	for b := 0; b < k; b++ {
		f := (float64(b) + 0.5) / float64(k)
		if e.logBuckets {
			e.buckets[b] = e.alphaLo * math.Exp(f*math.Log(e.alphaHi/e.alphaLo))
		} else {
			e.buckets[b] = e.alphaLo + (e.alphaHi-e.alphaLo)*f
		}
	}

	build.SetAttr("pops", len(ctx.Net.PoPs))
	build.SetAttr("links", len(ctx.Net.Links))
	build.SetAttr("alpha_buckets", k)
	build.SetAttr("components", t.components)
	e.tel.alphaBuckets.Set(float64(k))
	e.tel.unreachable.Set(float64(t.unreachable))
	buildSeconds := build.End().Seconds()
	e.tel.buildSeconds.Observe(buildSeconds)
	if opts.Logger != nil { // boxing the record's attributes allocates even when discarded
		e.lg.Info("engine built", "network", ctx.Net.Name,
			"pops", len(ctx.Net.PoPs), "links", len(ctx.Net.Links),
			"alpha_buckets", k, "components", t.components,
			"seconds", buildSeconds)
	}
	return e, nil
}

// N returns the PoP count.
func (e *Engine) N() int { return len(e.Ctx.Net.PoPs) }

// Components returns the number of connected components of the topology the
// engine was built over (1 for a whole network).
func (e *Engine) Components() int { return e.topo.components }

// UnreachablePairs returns the number of unordered PoP pairs split across
// components (0 for a whole network). The all-pairs evaluations skip them.
func (e *Engine) UnreachablePairs() int { return e.topo.unreachable }

// Topology returns the shared topology the engine routes on.
func (e *Engine) Topology() *Topology { return e.topo }

// skipSweep reports whether an injected fault knocks out source i's Dijkstra
// sweep. Evaluations have no error return, so a faulted sweep degrades: the
// source's pairs drop out of the aggregate and health records the loss.
func (e *Engine) skipSweep(i int) bool {
	if err := e.opts.Injector.Fail(resilience.PointDijkstraSweep, uint64(i)); err != nil {
		e.opts.Health.Degrade("engine", err, "sweep from PoP %d skipped", i)
		e.tel.skippedSweeps.Inc()
		return true
	}
	return false
}

// bucketOf maps an impact value to its quantization bucket.
func (e *Engine) bucketOf(alpha float64) int {
	k := len(e.buckets)
	if k == 1 || e.alphaHi <= e.alphaLo {
		return 0
	}
	var b int
	if e.logBuckets {
		if alpha <= e.alphaLo {
			return 0
		}
		b = int(float64(k) * math.Log(alpha/e.alphaLo) / math.Log(e.alphaHi/e.alphaLo))
	} else {
		b = int(float64(k) * (alpha - e.alphaLo) / (e.alphaHi - e.alphaLo))
	}
	if b < 0 {
		b = 0
	}
	if b >= k {
		b = k - 1
	}
	return b
}

// PairResult describes one routed pair.
type PairResult struct {
	Path         []int
	BitRiskMiles float64 // Equation 1 cost at the pair's exact α
	Miles        float64 // geographic path length
}

// RiskRoutePair solves Equation 3 for one pair with the pair's exact α
// (no quantization): the minimum bit-risk-mile path from i to j.
func (e *Engine) RiskRoutePair(i, j int) PairResult {
	path, _ := e.topo.csr.ShortestPathAt(i, j, e.Ctx.Alpha(i, j), e.slope)
	return e.PricePath(path, i, j)
}

// ShortestPair routes i to j by pure geographic shortest path and prices it
// in bit-risk miles — the baseline of Equations 5 and 6.
func (e *Engine) ShortestPair(i, j int) PairResult {
	return e.PricePath(e.topo.ShortestPath(i, j), i, j)
}

// PricePath prices path for the pair (i, j) as the pair queries do:
// Equation 1 cost (risk.Context.PathCost) and geographic miles, with hop
// lengths read from the topology's link miles. A nil path (disconnected
// pair) prices to infinity.
func (e *Engine) PricePath(path []int, i, j int) PairResult {
	if path == nil {
		return PairResult{BitRiskMiles: math.Inf(1), Miles: math.Inf(1)}
	}
	return PairResult{
		Path:         path,
		BitRiskMiles: e.Ctx.PathCostWith(path, i, j, e.topo.hopMiles),
		Miles:        e.Ctx.PathMilesWith(path, e.topo.hopMiles),
	}
}

// treeMetrics accumulates, along a shortest-path tree, each node's
// geographic path length and entered-node risk sum (Σ ρ(p_x), x ≥ 2), so a
// pair's Equation 1 cost is miles[v] + α·entered[v].
func (e *Engine) treeMetrics(t *graph.ShortestTree) (miles, entered []float64) {
	n := e.N()
	miles = make([]float64, n)
	entered = make([]float64, n)
	done := make([]bool, n)
	done[t.Source] = true

	var fill func(v int)
	fill = func(v int) {
		if done[v] {
			return
		}
		p := int(t.Prev[v])
		if p == -1 {
			// Unreachable; mark with infinities.
			miles[v] = math.Inf(1)
			entered[v] = math.Inf(1)
			done[v] = true
			return
		}
		fill(p)
		miles[v] = miles[p] + e.topo.hopMiles(p, v)
		entered[v] = entered[p] + e.Ctx.NodeRisk(v) + e.Ctx.LinkRisk(p, v)
		done[v] = true
	}
	for v := 0; v < n; v++ {
		if !math.IsInf(t.Dist[v], 1) {
			fill(v)
		} else {
			miles[v] = math.Inf(1)
			entered[v] = math.Inf(1)
			done[v] = true
		}
	}
	return miles, entered
}

// Ratios aggregates Equations 5 and 6.
type Ratios struct {
	// RiskReduction is rr: the mean fractional decrease in bit-risk miles of
	// RiskRoute paths versus shortest paths (0.2 ⇒ 20% lower risk).
	RiskReduction float64
	// DistanceIncrease is dr: the mean fractional increase in bit-miles of
	// RiskRoute paths versus shortest paths (0.2 ⇒ 20% longer routes).
	DistanceIncrease float64
	// Pairs is the number of ordered PoP pairs aggregated.
	Pairs int
}

// Evaluate computes the risk-reduction and distance-increase ratios over all
// ordered PoP pairs using α-quantized routing (costs are evaluated at each
// pair's exact α). Pairs i = j are excluded from the average, matching the
// ratio's intent.
func (e *Engine) Evaluate() Ratios {
	return e.evaluateSubset(nil, nil)
}

// EvaluateSubset restricts the aggregation to the given source and
// destination PoP index sets (nil means all). Used by the interdomain
// experiments, where sources are one regional network's PoPs and
// destinations are every regional PoP.
func (e *Engine) EvaluateSubset(sources, dests []int) Ratios {
	return e.evaluateSubset(sources, dests)
}

func (e *Engine) evaluateSubset(sources, dests []int) Ratios {
	n := e.N()
	if sources == nil {
		sources = make([]int, n)
		for i := range sources {
			sources[i] = i
		}
	}
	if dests == nil {
		dests = make([]int, n)
		for i := range dests {
			dests[i] = i
		}
	}

	type partial struct {
		riskSum, distSum float64
		pairs            int
	}
	sweep := e.opts.Trace.Child("sweep")
	defer sweep.End()
	workers := parallel.Workers(len(sources), e.opts.Workers)
	e.tel.workers.Set(float64(workers))
	e.tel.evaluations.Inc()
	partials := parallel.Map(len(sources), workers, func(si int) partial {
		started := time.Now()
		i := sources[si]
		var p partial
		if e.skipSweep(i) {
			return p
		}
		e.sweepSource(i, dests, func(rrMiles, rrCost, spMiles, spCost float64) {
			// Skip unreachable pairs and zero-cost pairs (co-located PoPs
			// in composite interdomain graphs have zero miles).
			if math.IsInf(spCost, 1) || spCost == 0 || spMiles == 0 {
				return
			}
			p.riskSum += rrCost / spCost
			p.distSum += rrMiles / spMiles
			p.pairs++
		})
		e.tel.sourceSeconds.Observe(time.Since(started).Seconds())
		return p
	})

	var riskSum, distSum float64
	pairs := 0
	for _, p := range partials {
		riskSum += p.riskSum
		distSum += p.distSum
		pairs += p.pairs
	}
	e.tel.pairs.Add(int64(pairs))
	sweep.SetAttr("sources", len(sources))
	sweep.SetAttr("workers", workers)
	sweep.SetAttr("pairs", pairs)
	e.lg.Info("sweep complete", "sources", len(sources),
		"pairs", pairs, "workers", workers,
		"seconds", sweep.Duration().Seconds())
	if pairs == 0 {
		return Ratios{}
	}
	return Ratios{
		RiskReduction:    1 - riskSum/float64(pairs),
		DistanceIncrease: distSum/float64(pairs) - 1,
		Pairs:            pairs,
	}
}

// sweepSource runs source i's α-quantized routing to every destination in
// dests (i itself skipped): one geographic Dijkstra, then one Dijkstra per
// α bucket that some destination falls in, buckets ascending and each
// bucket's destinations in dests order. visit receives each destination
// the quantized route reaches, with that route's miles and Equation 1 cost
// and the shortest path's, both priced at the pair's exact α. The true
// optimum never exceeds the shortest path's cost, so a quantized route
// pricing above it — pure bucket error — is replaced by the shortest path,
// which RiskRoute would simply keep there.
func (e *Engine) sweepSource(i int, dests []int, visit func(rrMiles, rrCost, spMiles, spCost float64)) {
	sMiles, sEntered := e.treeMetrics(e.topo.csr.Dijkstra(i))
	byBucket := make([][]int, len(e.buckets))
	for _, j := range dests {
		if j != i {
			b := e.bucketOf(e.Ctx.Alpha(i, j))
			byBucket[b] = append(byBucket[b], j)
		}
	}
	for b, js := range byBucket {
		if len(js) == 0 {
			continue
		}
		rMiles, rEntered := e.treeMetrics(e.topo.csr.DijkstraAt(i, e.buckets[b], e.slope))
		for _, j := range js {
			if math.IsInf(rMiles[j], 1) {
				continue
			}
			alpha := e.Ctx.Alpha(i, j)
			rrMiles, rrCost := rMiles[j], rMiles[j]+alpha*rEntered[j]
			spCost := sMiles[j] + alpha*sEntered[j]
			if rrCost > spCost {
				rrMiles, rrCost = sMiles[j], spCost
			}
			visit(rrMiles, rrCost, sMiles[j], spCost)
		}
	}
}

// EvaluateExact computes the same ratios with one exact-α Dijkstra per pair.
// Quadratically many searches: intended for verification and small networks.
func (e *Engine) EvaluateExact() Ratios {
	n := e.N()
	var riskSum, distSum float64
	pairs := 0
	for i := 0; i < n; i++ {
		sMiles, sEntered := e.treeMetrics(e.topo.csr.Dijkstra(i))
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			alpha := e.Ctx.Alpha(i, j)
			rr := e.RiskRoutePair(i, j)
			rShortest := sMiles[j] + alpha*sEntered[j]
			if math.IsInf(rShortest, 1) || math.IsInf(rr.BitRiskMiles, 1) || rShortest == 0 {
				continue
			}
			riskSum += rr.BitRiskMiles / rShortest
			distSum += rr.Miles / sMiles[j]
			pairs++
		}
	}
	if pairs == 0 {
		return Ratios{}
	}
	return Ratios{
		RiskReduction:    1 - riskSum/float64(pairs),
		DistanceIncrease: distSum/float64(pairs) - 1,
		Pairs:            pairs,
	}
}

// TotalBitRisk returns Equation 4's objective for the current topology: the
// sum over unordered pairs of the minimum bit-risk miles (α-quantized
// routing, exact-α pricing).
func (e *Engine) TotalBitRisk() float64 {
	n := e.N()
	span := e.opts.Trace.Child("total-bit-risk")
	defer span.End()
	workers := parallel.Workers(n, e.opts.Workers)
	e.tel.workers.Set(float64(workers))
	pops := make([]int, n)
	for j := range pops {
		pops[j] = j
	}
	partials := parallel.Map(n, workers, func(i int) float64 {
		if e.skipSweep(i) {
			return 0
		}
		sub := 0.0
		e.sweepSource(i, pops[i+1:], func(_, cost, _, _ float64) { sub += cost })
		return sub
	})
	total := 0.0
	for _, p := range partials {
		total += p
	}
	return total
}

// TotalBitRiskSubset sums the minimum bit-risk miles over the given
// source×destination pairs (unordered: each {i, j} counted once, i = j and
// unreachable pairs skipped). The interdomain analysis uses this as the
// lower-bound objective when scoring new peering relationships.
func (e *Engine) TotalBitRiskSubset(sources, dests []int) float64 {
	dests = slices.Clone(dests)
	slices.Sort(dests)
	dests = slices.Compact(dests)
	seen := make(map[[2]int]bool)
	total := 0.0
	for _, i := range sources {
		if e.skipSweep(i) {
			continue
		}
		var js []int
		for _, j := range dests {
			key := [2]int{min(i, j), max(i, j)}
			if seen[key] {
				continue
			}
			seen[key] = true
			js = append(js, j)
		}
		e.sweepSource(i, js, func(_, cost, _, _ float64) { total += cost })
	}
	return total
}
