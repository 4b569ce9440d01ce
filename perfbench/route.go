package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"riskroute"
)

// runRoute runs route-cold, route-hot or route-mixed against the real
// riskrouted daemon over loopback TCP.
func runRoute(ctx context.Context, o *options) (*report, error) {
	rep := newReport(o)
	nets := riskroute.BuiltinNetworks()
	wq := genQueries(o.workload, o.seed, nets)
	rep.env.QueryDigest = digestQueries(wq.timed)
	rep.env.Link = "loopback TCP (127.0.0.1), not a real network link"

	snapPath := filepath.Join(o.out, "world.rrws")
	world, digest, err := bakeWorld(snapPath)
	if err != nil {
		return nil, err
	}
	rep.env.SnapshotDigest = digest
	orc, err := newOracle(nets, world)
	if err != nil {
		return nil, err
	}
	world = nil
	runtime.GC()

	mixed := o.workload == "route-mixed"
	clients, writers := min(2, runtime.NumCPU()), 0
	rep.env.Loop = "closed"
	if mixed {
		clients, writers = 1, 1
		rep.env.Loop = fmt.Sprintf("closed-loop reader, open-loop writer at %d advisories/s", advisoryRate)
	}
	rep.env.Clients, rep.env.Writers = clients, writers

	// setup_s: the median of several boots from the baked snapshot. The
	// last booted daemon serves the timed phase.
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var setups []float64
	for range o.boots {
		if d != nil {
			d.stop()
		}
		var boot time.Duration
		d, boot, err = startDaemon(ctx, o.daemon, []string{"-world-snapshot", snapPath}, o.readyTimeout)
		if err != nil {
			return nil, err
		}
		setups = append(setups, boot.Seconds())
	}
	rep.set("setup_s", median(setups), fmt.Sprintf("median of %d boots, exec until /v1/readyz 200", len(setups)))

	// Warm: connections, the daemon's heap, and for route-hot the cache.
	warmFor := time.Duration(min(1, o.seconds/5) * float64(time.Second))
	if err := logsErr(runClosedLoop(ctx, d, wq.warm, 1, time.Now().Add(time.Hour), false, len(wq.warm))); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	warmQs := wq.warm
	if o.workload == "route-hot" {
		warmQs = wq.timed
	}
	if err := logsErr(runClosedLoop(ctx, d, warmQs, clients, time.Now().Add(warmFor), false, 0)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	var texts []string
	if mixed {
		texts = riskroute.AdvisoryCorpus(riskroute.HurricaneByName("Sandy"))
	}
	// Only the readers' connections (and route-mixed's writer) stay open.
	d.client.CloseIdleConnections()
	runtime.GC()
	res := &phaseResult{gens: map[uint64]string{}}
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	if mixed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWriter(ctx, d, texts, start, deadline, res)
		}()
	}
	res.clients = runClosedLoop(ctx, d, wq.timed, clients, deadline, true, 0)
	res.elapsed = time.Since(start)
	wg.Wait()
	if ctx.Err() != nil {
		return nil, errStopped
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	d.stop()
	d = nil

	// Correctness: every distinct 200 response against the facade.
	for gen, text := range res.gens {
		orc.advisories[gen] = text
	}
	var lat []float64
	for _, cl := range res.clients {
		rep.attempted += cl.attempts
		rep.failed += cl.errors
		lat = append(lat, cl.lat...)
		if cl.firstErr != "" {
			rep.extra = append(rep.extra, "first request error: "+cl.firstErr)
		}
	}
	rep.mismatch, err = orc.checkResponses(wq.timed, res.clients)
	if err != nil {
		rep.extra = append(rep.extra, "first mismatch: "+err.Error())
	}
	rep.attempted += int64(len(res.advLat)) + res.advFails
	rep.failed += res.advFails + rep.mismatch
	if res.advFirst != "" {
		rep.extra = append(rep.extra, "first advisory error: "+res.advFirst)
	}

	n := len(lat)
	rep.set("ops_per_s", float64(n)/res.elapsed.Seconds(),
		fmt.Sprintf("rps: %d route 200s in %.3f s, %d closed-loop clients", n, res.elapsed.Seconds(), clients))
	rep.set("p50_us", quantile(lat, 0.5)*1e6, fmt.Sprintf("route latency send to last byte, exact over n=%d", n))
	rep.set("p90_us", quantile(lat, 0.9)*1e6, fmt.Sprintf("route latency send to last byte, exact over n=%d", n))
	rep.extra = append(rep.extra, fmt.Sprintf(
		"metric p99_us = %.6g us (route latency send to last byte, exact over n=%d)", quantile(lat, 0.99)*1e6, n))
	rep.set("rss_mb", rss, "daemon VmHWM")
	advP50 := quantile(res.advLat, 0.5) * 1e3
	rep.set("serve.advisory_post_ms.p50", advP50, fmt.Sprintf("n=%d, from due time", len(res.advLat)))
	if mixed {
		rep.extra = append(rep.extra, fmt.Sprintf(
			"metric advisory_p50_ms = %.6g ms (POST /v1/advisory from due time to last byte, exact over n=%d; writer ran at most %.3f ms late)",
			advP50, len(res.advLat), res.advLag.Seconds()*1e3))
	}
	scrapeMetrics(rep, before, after)

	if o.trace {
		readsPerSwap := 0
		if mixed && len(res.advLat) > 0 {
			readsPerSwap = max(1, n/len(res.advLat))
		}
		if err := replayRoute(o, rep, nets, wq, snapPath, texts, readsPerSwap); err != nil {
			return nil, err
		}
		rep.set("edge.overhead_us.p50", rep.values["p50_us"]-rep.values["serve.handler_us.p50"],
			"p50_us minus serve.handler_us.p50")
	}
	return rep, nil
}

// logsErr reports the first failure of an untimed phase.
func logsErr(logs []*clientLog) error {
	for _, cl := range logs {
		if cl.firstErr != "" {
			return fmt.Errorf("%d failed requests, first: %s", cl.errors, cl.firstErr)
		}
	}
	return nil
}

// scrapeMetrics derives the daemon-side per-layer metrics from the /metrics
// deltas across the timed phase.
func scrapeMetrics(rep *report, before, after map[string]float64) {
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("serve_cache_hits_total"), delta("serve_cache_misses_total")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	rep.set("serve.cache_hit_ratio", ratio, fmt.Sprintf("scrape: %.0f hits, %.0f misses", hits, misses))
	reqs := delta("serve_requests_total_route")
	rep.set("runtime.mallocs_per_req", delta("runtime_mallocs_total")/max(reqs, 1),
		fmt.Sprintf("scrape: over %.0f route requests", reqs))
	gc, total := delta("runtime_go_cpu_classes_gc_total_cpu_seconds"), delta("runtime_go_cpu_classes_total_cpu_seconds")
	frac := 0.0
	if total > 0 {
		frac = gc / total
	}
	rep.set("runtime.gc_cpu_frac", frac, fmt.Sprintf("scrape: %.4f GC of %.3f CPU seconds", gc, total))
}

// replayRoute is the traced run of a route workload: it replays the same
// generated queries in-process through serve's public handler, with one
// span around each call into a layer's public function, then writes the
// spans as a Chrome trace and derives the per-layer metrics from them.
func replayRoute(o *options, rep *report, nets []*riskroute.Network, wq workloadQueries,
	snapPath string, texts []string, readsPerSwap int) error {

	rec := newRecorder("perfbench " + o.workload)
	workers := runtime.NumCPU()
	var world *riskroute.WorldSnapshot
	for range 3 {
		s := rec.begin("snapshot.load", -1, -1)
		w, _, err := riskroute.LoadWorldSnapshot(snapPath, riskroute.WorldSnapshotLoadOptions{Workers: workers})
		rec.end(s)
		if err != nil {
			return err
		}
		world = w
	}
	// The daemon's configuration: tracing on, text access log (discarded).
	var srv *riskroute.Server
	for range 3 {
		lh, err := riskroute.NewLogHandler("text", io.Discard)
		if err != nil {
			return err
		}
		cfg := serveConfig()
		cfg.World = world
		cfg.Metrics = riskroute.NewMetrics()
		cfg.Trace = riskroute.NewTrace("riskrouted")
		cfg.Logger = slog.New(lh)
		cfg.Health = riskroute.NewPipelineHealth()
		s := rec.begin("serve.new", -1, -1)
		srv, err = riskroute.NewServer(cfg)
		rec.end(s)
		if err != nil {
			return err
		}
	}
	orc, err := newOracle(nets, world)
	if err != nil {
		return err
	}
	// Warm the in-process server as the daemon was warmed: the whole hot
	// set for route-hot, a slice of the warm-up queries otherwise.
	h := srv.Handler()
	warm := wq.warm
	if o.workload != "route-hot" {
		warm = warm[:min(len(warm), 500)]
	}
	for _, q := range warm {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, q.path, nil))
		if w.Code != http.StatusOK {
			return fmt.Errorf("replay warm-up %s: %d %s", q.path, w.Code, w.Body.String())
		}
	}

	gen := srv.Generation()
	var calls []pairCall
	swaps := 0
	for i := 0; i < o.replay; i++ {
		if readsPerSwap > 0 && i%readsPerSwap == 0 {
			text := texts[swaps%len(texts)]
			a := rec.begin("advisory", -1, swaps)
			s := rec.begin("serve.apply_advisory", a, swaps)
			_, g, err := srv.ApplyAdvisory(text)
			rec.end(s)
			if err != nil {
				return err
			}
			gen = g
			orc.advisories[gen] = text
			s = rec.begin("forecast.parse", a, swaps)
			adv, err := riskroute.ParseAdvisory(text)
			rec.end(s)
			if err != nil {
				return err
			}
			rm := riskroute.DefaultForecastModel()
			s = rec.begin("forecast.pop_risks", a, swaps)
			for _, n := range nets {
				rm.PoPRisks(adv, n)
			}
			rec.end(s)
			rec.end(a)
			swaps++
		}

		q := wq.timed[i%len(wq.timed)]
		r := rec.begin("request", -1, i)
		req := httptest.NewRequest(http.MethodGet, q.path, nil)
		w := httptest.NewRecorder()
		s := rec.begin("serve.handler", r, i)
		h.ServeHTTP(w, req)
		rec.end(s)
		if w.Code != http.StatusOK {
			return fmt.Errorf("replay %s: %d %s", q.path, w.Code, w.Body.String())
		}
		rec.setAttr(s, "bytes", int64(w.Body.Len()))

		// The kernel calls the handler made, replayed one layer at a time:
		// only for cache misses, where the daemon ran the kernel at all.
		if !bytes.Contains(w.Body.Bytes(), []byte(`"cached": false`)) {
			rec.end(r)
			continue
		}
		eng, err := orc.engine(gen, q.net, 0)
		if err != nil {
			return err
		}
		if q.lambdaH != 0 {
			// Non-default λ: the daemon builds a request-scoped engine.
			p := riskroute.PaperParams()
			p.LambdaH = q.lambdaH
			s = rec.begin("core.new", r, i)
			eng, err = riskroute.NewEngine(&riskroute.Context{
				Net: eng.Ctx.Net, Hist: eng.Ctx.Hist, Forecast: eng.Ctx.Forecast,
				Fractions: eng.Ctx.Fractions, Params: p,
			}, riskroute.Options{Workers: workers})
			rec.end(s)
			if err != nil {
				return err
			}
		}
		kernelSpans(rec, r, i, eng, q.src, q.dst, q.explain)
		calls = append(calls, pairCall{eng, q.src, q.dst})
		rec.end(r)
	}
	allocPass(rec, calls)
	rec.layerFromSpans(rep)
	return rec.write(filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)))
}

// kernelSpans replays one routed pair layer by layer: the engine's pair
// calls, then the weighted-graph rebuild and Dijkstra they are made of, then
// the explanations an explain request adds.
func kernelSpans(rec *recorder, parent, req int, eng *riskroute.Engine, src, dst int, explain bool) {
	s := rec.begin("core.riskroute_pair", parent, req)
	rr := eng.RiskRoutePair(src, dst)
	rec.end(s)
	s = rec.begin("core.shortest_pair", parent, req)
	sp := eng.ShortestPair(src, dst)
	rec.end(s)
	s = rec.begin("risk.weighted_graph", parent, req)
	g := eng.Ctx.WeightedGraph(eng.Ctx.Alpha(src, dst))
	rec.end(s)
	s = rec.begin("graph.shortest_path", parent, req)
	g.ShortestPath(src, dst)
	rec.end(s)
	if explain {
		for _, path := range [][]int{rr.Path, sp.Path} {
			s = rec.begin("core.explain", parent, req)
			eng.ExplainPath(path, src, dst)
			rec.end(s)
		}
	}
}

// pairCall is one routed pair of a traced replay.
type pairCall struct {
	eng      *riskroute.Engine
	src, dst int
}

// allocPass counts the heap allocations of the pair calls (RiskRoutePair
// plus ShortestPair) in an untimed pass over up to 500 replayed pairs.
func allocPass(rec *recorder, calls []pairCall) {
	n := min(len(calls), 500)
	s := rec.begin("core.alloc_pass", -1, -1)
	m0 := mallocs()
	for _, c := range calls[:n] {
		c.eng.RiskRoutePair(c.src, c.dst)
		c.eng.ShortestPair(c.src, c.dst)
	}
	rec.setAttr(s, "allocs", mallocs()-m0)
	rec.setAttr(s, "pairs", int64(n))
	rec.end(s)
}
