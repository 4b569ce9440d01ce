package core

import (
	"riskroute/internal/graph"
	"riskroute/internal/topology"
)

// Topology is the risk-independent half of an engine: one network's link
// miles (one haversine per link, computed once), its adjacency — mutable
// graph.Graph for the cold paths, flattened graph.CSR for every α-route —
// and its connected components. It is immutable, so any number of engines,
// each a Topology plus its own slope vector, share it: a scenario's
// forecast, an advisory swap or a λ override then costs O(E) arithmetic,
// not a graph build.
type Topology struct {
	net   *topology.Network
	miles []float64    // per link, index-aligned with net.Links
	g     *graph.Graph // base miles, links in net.Links order
	csr   *graph.CSR   // g flattened

	components  int // connected components (1 when whole)
	unreachable int // unordered PoP pairs split across components
}

// NewTopology builds net's routing topology. It panics on a link the
// routing graph cannot hold (out-of-range endpoint, self-loop), as graph
// construction always has; topology.Validate rejects both.
func NewTopology(net *topology.Network) *Topology {
	miles := make([]float64, len(net.Links))
	for i, l := range net.Links {
		miles[i] = net.LinkMiles(l)
	}
	return newTopology(net, miles)
}

func newTopology(net *topology.Network, miles []float64) *Topology {
	n := len(net.PoPs)
	g := graph.New(n)
	for i, l := range net.Links {
		g.AddEdge(l.A, l.B, miles[i])
	}
	t := &Topology{net: net, miles: miles, g: g, csr: g.CSR()}
	comps := g.Components()
	t.components = len(comps)
	if t.components > 1 {
		reachable := 0
		for _, c := range comps {
			reachable += len(c) * (len(c) - 1) / 2
		}
		t.unreachable = n*(n-1)/2 - reachable
	}
	return t
}

// Net returns the network the topology was built from.
func (t *Topology) Net() *topology.Network { return t.net }

// Without returns the topology with the given link indices removed — a
// regional failure's surviving network. Its Net is a shallow copy of the
// parent's that shares the PoPs (risk slices stay index-aligned), and its
// link miles are the parent's, so no haversine runs. Indices out of range
// are ignored.
func (t *Topology) Without(disabled []int) *Topology {
	dead := make([]bool, len(t.net.Links))
	for _, i := range disabled {
		if i >= 0 && i < len(dead) {
			dead[i] = true
		}
	}
	links := make([]topology.Link, 0, len(t.net.Links))
	miles := make([]float64, 0, len(t.net.Links))
	for i, l := range t.net.Links {
		if !dead[i] {
			links = append(links, l)
			miles = append(miles, t.miles[i])
		}
	}
	net := &topology.Network{Name: t.net.Name, Tier: t.net.Tier, PoPs: t.net.PoPs, Links: links}
	return newTopology(net, miles)
}

// ShortestPath returns the geographic shortest path between i and j (nil
// when they are disconnected): the route ShortestPair prices, which no
// risk layer changes.
func (t *Topology) ShortestPath(i, j int) []int {
	path, _ := t.csr.ShortestPath(i, j)
	return path
}

// hopMiles returns the length of the hop u→v from the link miles. A hop the
// topology lacks (never one of its own routes) is measured directly.
func (t *Topology) hopMiles(u, v int) float64 {
	if m, ok := t.csr.Base(u, v); ok {
		return m
	}
	return t.net.LinkMiles(topology.Link{A: u, B: v})
}
