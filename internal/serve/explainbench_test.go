package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// explainBenchHandlers builds the two route handlers the explain-overhead
// benchmarks compare: off is the route body with attribution compiled out
// (routeImpl's explainCapable=false), on is the production handler, both
// behind the same instrument/admit wrappers so the only difference is the
// explain capability itself. Neither request carries ?explain, so both serve
// the hot path; the benchmarks price what attribution support costs requests
// that never ask for it.
func explainBenchHandlers(s *Server) (off, on http.HandlerFunc) {
	off = s.instrument("route", s.admit(func(w http.ResponseWriter, r *http.Request) {
		s.routeImpl(w, r, false)
	}))
	on = s.instrument("route", s.admit(s.handleRoute))
	return off, on
}

// BenchmarkRouteExplainOff measures the full cache-miss route path with
// attribution support compiled out — the pre-PR8 handler body.
func BenchmarkRouteExplainOff(b *testing.B) {
	s := testServer(b)
	net := s.bases[0].Net
	path := routeURL(net.PoPs[0].Name, net.PoPs[len(net.PoPs)-1].Name)
	req := httptest.NewRequest(http.MethodGet, path, nil)
	off, _ := explainBenchHandlers(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.Reset()
		rec := httptest.NewRecorder()
		off.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkRouteExplainOn measures the identical workload through the
// production explain-capable handler (still without ?explain=1: this is the
// hot path's price for carrying the capability, not the cost of an
// explanation).
func BenchmarkRouteExplainOn(b *testing.B) {
	s := testServer(b)
	net := s.bases[0].Net
	path := routeURL(net.PoPs[0].Name, net.PoPs[len(net.PoPs)-1].Name)
	req := httptest.NewRequest(http.MethodGet, path, nil)
	_, on := explainBenchHandlers(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.Reset()
		rec := httptest.NewRecorder()
		on.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkRouteExplainPaired is the explain-off overhead gate, the same
// interleaved estimator as BenchmarkRouteTracingPaired: alternating
// 32-request batches of the explain-free and explain-capable handlers inside
// one timer window, reporting the per-request delta and the overhead ratio
// as metrics. benchjson gates overhead-pct at <= 1% (Makefile/CI pass
// -gate explain=RouteExplainOff/RouteExplainOn/RouteExplainPaired@1), the
// ISSUE's explain-off budget.
func BenchmarkRouteExplainPaired(b *testing.B) {
	s := testServer(b)
	net := s.bases[0].Net
	path := routeURL(net.PoPs[0].Name, net.PoPs[len(net.PoPs)-1].Name)
	req := httptest.NewRequest(http.MethodGet, path, nil)
	off, on := explainBenchHandlers(s)
	const batch = 32
	var offNs, onNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			s.cache.Reset()
			rec := httptest.NewRecorder()
			off.ServeHTTP(rec, req)
		}
		t1 := time.Now()
		for j := 0; j < batch; j++ {
			s.cache.Reset()
			rec := httptest.NewRecorder()
			on.ServeHTTP(rec, req)
		}
		t2 := time.Now()
		offNs += t1.Sub(t0).Nanoseconds()
		onNs += t2.Sub(t1).Nanoseconds()
	}
	b.StopTimer()
	if offNs > 0 {
		requests := float64(int64(b.N) * batch)
		b.ReportMetric(float64(onNs-offNs)/float64(offNs)*100, "overhead-pct")
		b.ReportMetric(float64(onNs-offNs)/requests, "delta-ns/req")
	}
}

// BenchmarkRouteExplainBody prices an actual explanation: the same route
// with ?explain=1, attribution of both legs plus the larger JSON body. Not
// gated — explanations are an opt-in diagnostic — but tracked so regressions
// surface in the bench history.
func BenchmarkRouteExplainBody(b *testing.B) {
	s := testServer(b)
	net := s.bases[0].Net
	path := routeURL(net.PoPs[0].Name, net.PoPs[len(net.PoPs)-1].Name, "explain", "1")
	req := httptest.NewRequest(http.MethodGet, path, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
