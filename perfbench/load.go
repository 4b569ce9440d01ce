package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// advisoryRate is route-mixed's open-loop writer rate (swaps per second).
const advisoryRate = 4

// arena copies response bodies into large chunks so that keeping tens of
// thousands of them for the correctness check costs few allocations.
type arena struct{ cur []byte }

func (a *arena) copy(b []byte) []byte {
	if cap(a.cur)-len(a.cur) < len(b) {
		a.cur = make([]byte, 0, max(1<<20, len(b)))
	}
	s := len(a.cur)
	a.cur = append(a.cur, b...)
	return a.cur[s:len(a.cur):len(a.cur)]
}

// recorded is one distinct 200 route response kept for the check, with how
// many identical responses it stands for.
type recorded struct {
	query int // index into the timed query sequence
	body  []byte
	count int
}

// clientLog is one client's record of the timed phase.
type clientLog struct {
	lat      []float64 // seconds, 200 responses only
	attempts int64
	errors   int64
	firstErr string
	bodies   []recorded
	seen     map[uint64]int // (query, body) hash -> index into bodies
	arena    arena
}

func (c *clientLog) fail(msg string) {
	c.errors++
	if c.firstErr == "" {
		c.firstErr = msg
	}
}

// phaseResult is what the closed-loop readers and the open-loop writer saw.
type phaseResult struct {
	clients  []*clientLog
	elapsed  time.Duration
	advLat   []float64 // seconds from each POST's due time to its last byte
	advLag   time.Duration
	advFails int64
	advFirst string
	gens     map[uint64]string // generation -> advisory text
}

// runClosedLoop drives clients closed-loop readers over qs until deadline,
// or until limit requests have been sent when limit > 0: each client sends
// its next request only after the previous response's last byte, taking the
// next query of the shared sequence. Each client keeps one HTTP/1.1
// keep-alive connection and writes pre-rendered requests on it, so the
// harness spends little of the shared CPUs. With record set, latencies and
// distinct 200 bodies are kept.
func runClosedLoop(ctx context.Context, d *daemon, qs []query, clients int, deadline time.Time, record bool, limit int) []*clientLog {
	var next atomic.Int64
	seed := maphash.MakeSeed()
	logs := make([]*clientLog, clients)
	var wg sync.WaitGroup
	for c := range logs {
		cl := &clientLog{seen: map[uint64]int{}}
		logs[c] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", d.addr)
			if err != nil {
				cl.fail(err.Error())
				return
			}
			defer conn.Close()
			br := bufio.NewReaderSize(conn, 64<<10)
			buf := bytes.NewBuffer(make([]byte, 0, 64<<10))
			for ctx.Err() == nil {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				i %= len(qs)
				cl.attempts++
				status, err := roundTrip(conn, br, qs[i].request, buf)
				lat := time.Since(t0)
				if err != nil {
					// The connection's state is unknown after a transport
					// error: stop this client rather than misread replies.
					cl.fail(err.Error())
					return
				}
				if status != http.StatusOK {
					cl.fail(fmt.Sprintf("%s: %d %s", qs[i].path, status, strings.TrimSpace(buf.String())))
					continue
				}
				if !record {
					continue
				}
				cl.lat = append(cl.lat, lat.Seconds())
				var h maphash.Hash
				h.SetSeed(seed)
				h.WriteString(qs[i].path)
				h.Write(buf.Bytes())
				key := h.Sum64()
				if j, ok := cl.seen[key]; ok {
					cl.bodies[j].count++
					continue
				}
				cl.seen[key] = len(cl.bodies)
				cl.bodies = append(cl.bodies, recorded{query: i, body: cl.arena.copy(buf.Bytes()), count: 1})
			}
		}()
	}
	wg.Wait()
	return logs
}

// roundTrip writes one pre-rendered request and reads the whole response
// body into body.
func roundTrip(conn net.Conn, br *bufio.Reader, request []byte, body *bytes.Buffer) (int, error) {
	if _, err := conn.Write(request); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return 0, err
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// runWriter POSTs advisories open-loop at advisoryRate until deadline,
// cycling through texts. Each POST is timed from when it was due, so a
// stalled swap also charges the POSTs queued behind it.
func runWriter(ctx context.Context, d *daemon, texts []string, start, deadline time.Time, res *phaseResult) {
	period := time.Second / advisoryRate
	for k := 0; ctx.Err() == nil; k++ {
		due := start.Add(time.Duration(k) * period)
		if !due.Before(deadline) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		res.advLag = max(res.advLag, time.Since(due))
		text := texts[k%len(texts)]
		gen, err := postAdvisory(d, text)
		if err != nil {
			res.advFails++
			if res.advFirst == "" {
				res.advFirst = err.Error()
			}
			continue
		}
		res.advLat = append(res.advLat, time.Since(due).Seconds())
		res.gens[gen] = text
	}
}

// postAdvisory sends one advisory and returns the generation it published.
func postAdvisory(d *daemon, text string) (uint64, error) {
	resp, err := d.client.Post(d.base+"/v1/advisory", "text/plain", strings.NewReader(text))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST /v1/advisory: %s %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var doc struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, err
	}
	return doc.Generation, nil
}
