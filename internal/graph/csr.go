package graph

import "sync"

// CSR is an immutable, flattened copy of a Graph's adjacency (compressed
// sparse rows): node u's half-edges are off[u]..off[u+1], each with its
// neighbour and base weight, in the Graph's insertion order, so searches
// break ties exactly as the Graph's do.
//
// Its searches take x and a slope vector parallel to the half-edge array
// and relax every half-edge k at base[k] + x·slope[k]. One CSR therefore
// serves any number of re-weightings of the same topology — each with its
// own slope vector, built by Vector — without copying the adjacency.
type CSR struct {
	n    int
	off  []int32   // len n+1
	to   []int32   // per half-edge
	base []float64 // per half-edge
}

// CSR flattens the graph's current adjacency. Later AddEdge calls do not
// affect the result.
func (g *Graph) CSR() *CSR {
	c := &CSR{
		n:    g.n,
		off:  make([]int32, g.n+1),
		to:   make([]int32, 0, 2*g.m),
		base: make([]float64, 0, 2*g.m),
	}
	for u, list := range g.adj {
		for _, e := range list {
			c.to = append(c.to, e.to)
			c.base = append(c.base, e.weight)
		}
		c.off[u+1] = int32(len(c.to))
	}
	return c
}

// Vector returns a per-half-edge vector, in the searches' slope layout,
// holding f(u, v) for the half-edge u→v. Each undirected edge appears once
// per direction, so f must be symmetric for the vector to weight the graph
// undirected.
func (c *CSR) Vector(f func(u, v int) float64) []float64 {
	out := make([]float64, len(c.to))
	for u := 0; u < c.n; u++ {
		for k := c.off[u]; k < c.off[u+1]; k++ {
			out[k] = f(u, int(c.to[k]))
		}
	}
	return out
}

// Base returns the base weight of the first u–v half-edge (every parallel
// edge the routing core builds between two PoPs carries the same miles),
// and false when u and v are not adjacent.
func (c *CSR) Base(u, v int) (float64, bool) {
	for k := c.off[u]; k < c.off[u+1]; k++ {
		if int(c.to[k]) == v {
			return c.base[k], true
		}
	}
	return 0, false
}

// Dijkstra computes single-source shortest paths over the base weights. It
// is DijkstraAt at x = 0 with the base vector as slope: 0·b adds nothing
// to a finite weight, so any finite slope routes the base weights there.
func (c *CSR) Dijkstra(src int) *ShortestTree { return c.DijkstraAt(src, 0, c.base) }

// ShortestPath returns the minimum-base-weight path between u and v and its
// weight: ShortestPathAt at x = 0.
func (c *CSR) ShortestPath(u, v int) ([]int, float64) { return c.ShortestPathAt(u, v, 0, c.base) }

// DijkstraAt computes single-source shortest paths from src with half-edge
// k weighted base[k] + x·slope[k] (x finite and non-negative, slope finite,
// non-negative and of Vector's length). It panics if src is out of range or
// slope has the wrong length. Ties resolve to the first path discovered,
// exactly as Graph.Dijkstra does on the same adjacency.
func (c *CSR) DijkstraAt(src int, x float64, slope []float64) *ShortestTree {
	if src < 0 || src >= c.n {
		panic("graph: Dijkstra source out of range")
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	t := &ShortestTree{Source: src, Dist: make([]float64, c.n), Prev: make([]int32, c.n)}
	c.search(t.Dist, t.Prev, &s.h, src, -1, x, slope)
	return t
}

// ShortestPathAt returns the minimum-weight path between u and v, with
// half-edge k weighted base[k] + x·slope[k] as in DijkstraAt, and its total
// weight; (nil, +Inf) if v is unreachable from u. The search stops the
// moment v is settled — with non-negative weights its distance is final
// then — and only the path is allocated: the search's working memory is
// pooled across calls.
func (c *CSR) ShortestPathAt(u, v int, x float64, slope []float64) ([]int, float64) {
	if u < 0 || u >= c.n || v < 0 || v >= c.n {
		panic("graph: ShortestPath endpoints out of range")
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	if cap(s.dist) < c.n {
		s.dist, s.prev = make([]float64, c.n), make([]int32, c.n)
	}
	dist, prev := s.dist[:c.n], s.prev[:c.n]
	c.search(dist, prev, &s.h, u, v, x, slope)
	t := ShortestTree{Source: u, Dist: dist, Prev: prev}
	return t.PathTo(v), dist[v]
}

// scratch is a CSR search's reusable working memory.
type scratch struct {
	dist []float64
	prev []int32
	h    heap
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// search is the one CSR search body: binary-heap Dijkstra from src into
// dist and prev (len N, overwritten), which stops once stop (if ≥ 0) is
// settled. It relaxes d + (base[k] + x·slope[k]) — the association
// Graph.Dijkstra's d + weight had when the weight was materialized as
// base + x·slope — so distances match bit for bit.
func (c *CSR) search(dist []float64, prev []int32, h *heap, src, stop int, x float64, slope []float64) {
	if len(slope) != len(c.to) {
		panic("graph: slope vector length does not match the half-edge count")
	}
	for i := range dist {
		dist[i] = Inf
		prev[i] = -1
	}
	dist[src] = 0
	h.nodes, h.prio = h.nodes[:0], h.prio[:0]
	h.push(src, 0)
	for h.len() > 0 {
		u, d := h.pop()
		if d > dist[u] {
			continue // stale entry
		}
		if u == stop {
			break // settled: final with non-negative weights
		}
		lo, hi := c.off[u], c.off[u+1]
		to, base, sl := c.to[lo:hi], c.base[lo:hi], slope[lo:hi]
		base, sl = base[:len(to)], sl[:len(to)]
		for k, v := range to {
			nd := d + (base[k] + x*sl[k])
			if nd < dist[v] {
				dist[v] = nd
				prev[v] = int32(u)
				h.push(int(v), nd)
			}
		}
	}
}
