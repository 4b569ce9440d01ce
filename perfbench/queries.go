package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"net/url"
	"strconv"

	"riskroute"
)

// hotSetSize is route-hot's query working set: well inside the daemon's
// 4096-entry result cache.
const hotSetSize = 256

// mixedLambdaH are route-mixed's non-default λ_h values.
var mixedLambdaH = []float64{2e4, 5e4, 2e5}

// query is one generated /v1/route request.
type query struct {
	net      int // index into the corpus networks
	src, dst int
	lambdaH  float64 // 0 keeps the daemon's default λ
	explain  bool
	path     string // request path and query string
	request  []byte // the whole HTTP/1.1 GET request for path
}

// workloadQueries are the generated inputs of one route workload: warm
// requests sent before timing and the timed sequence clients walk in order.
type workloadQueries struct {
	warm, timed []query
}

// corpusPairs lists every ordered PoP pair of the corpus networks, so a
// uniform draw weights each network by its pair count (Level3's 233 PoPs
// hold about 75% of the ~72k pairs). Pairs whose PoP names do not resolve
// back to the same indices are left out, since requests name PoPs.
func corpusPairs(nets []*riskroute.Network) []query {
	var out []query
	for ni, n := range nets {
		for i := range n.PoPs {
			if n.PoPIndex(n.PoPs[i].Name) != i {
				continue
			}
			for j := range n.PoPs {
				if i != j && n.PoPIndex(n.PoPs[j].Name) == j {
					out = append(out, query{net: ni, src: i, dst: j})
				}
			}
		}
	}
	return out
}

// genQueries draws a route workload's inputs from the workload seed.
//
//   - route-cold walks a seeded permutation of every corpus pair at default
//     λ, so no pair repeats within the result cache.
//   - route-hot cycles over hotSetSize seeded pairs, all warmed first.
//   - route-mixed walks a seeded permutation with a seeded λ_h from
//     mixedLambdaH on every read and explain=1 on one read in each ten.
//
// Warm requests come from the far end of the permutation, so they never
// pre-fill the cache for the timed sequence of route-cold and route-mixed.
func genQueries(workload string, seed uint64, nets []*riskroute.Network) workloadQueries {
	rng := rand.New(rand.NewPCG(seed, 0x7065726662656e63))
	pairs := corpusPairs(nets)
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })

	var wq workloadQueries
	switch workload {
	case "route-hot":
		wq.timed = pairs[:hotSetSize]
		wq.warm = wq.timed
	case "route-mixed":
		for i := range pairs {
			pairs[i].lambdaH = mixedLambdaH[rng.IntN(len(mixedLambdaH))]
		}
		for block := 0; block+10 <= len(pairs); block += 10 {
			pairs[block+rng.IntN(10)].explain = true
		}
		fallthrough
	default:
		const warmN = 2048
		wq.warm = pairs[len(pairs)-warmN:]
		wq.timed = pairs[:len(pairs)-warmN]
	}
	for _, qs := range [][]query{wq.warm, wq.timed} {
		for i := range qs {
			qs[i].path = routePath(nets, qs[i])
			qs[i].request = []byte("GET " + qs[i].path + " HTTP/1.1\r\nHost: perfbench\r\n\r\n")
		}
	}
	return wq
}

// routePath renders a query as its /v1/route request path.
func routePath(nets []*riskroute.Network, q query) string {
	n := nets[q.net]
	v := url.Values{}
	v.Set("network", n.Name)
	v.Set("from", n.PoPs[q.src].Name)
	v.Set("to", n.PoPs[q.dst].Name)
	if q.lambdaH != 0 {
		v.Set("lambda_h", strconv.FormatFloat(q.lambdaH, 'g', -1, 64))
	}
	if q.explain {
		v.Set("explain", "1")
	}
	return "/v1/route?" + v.Encode()
}

// digestQueries fingerprints a query sequence (recorded with each result so
// two runs can be shown to have used the same or different inputs).
func digestQueries(qs []query) string {
	h := sha256.New()
	var b [8]byte
	for _, q := range qs {
		h.Write([]byte(q.path))
		binary.LittleEndian.PutUint64(b[:], uint64(q.src)<<32|uint64(q.dst))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
