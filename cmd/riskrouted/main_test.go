package main

import (
	"net"
	"net/http"
	"strings"
	"testing"
)

func TestNewHTTPServerLimits(t *testing.T) {
	s := newHTTPServer(http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 || s.ReadTimeout <= 0 || s.IdleTimeout <= 0 || s.MaxHeaderBytes <= 0 {
		t.Fatalf("edge limits unset: header %v, read %v, idle %v, max header bytes %d",
			s.ReadHeaderTimeout, s.ReadTimeout, s.IdleTimeout, s.MaxHeaderBytes)
	}
	if s.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, want unset (handlers are bounded by RequestTimeout)", s.WriteTimeout)
	}
}

func TestOversizedHeaderGets431(t *testing.T) {
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	url := "http://" + ln.Addr().String() + "/v1/healthz"

	get := func(header string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Pad", header)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("small"); code != http.StatusNoContent {
		t.Fatalf("ordinary request: %d, want 204", code)
	}
	if code := get(strings.Repeat("x", 2*srv.MaxHeaderBytes)); code != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("oversized header: %d, want 431", code)
	}
}
