// Package core is the high-level façade of clustercast: one import that
// ties together topology generation, lowest-ID clustering, the paper's
// static (SI-CDS) and dynamic (SD-CDS) cluster-based backbones, the MO_CDS
// baseline, and broadcast simulation.
//
// Typical use:
//
//	nw, err := core.NewRandomNetwork(core.NetworkSpec{N: 100, AvgDegree: 6, Seed: 42})
//	...
//	static := nw.StaticBackbone(core.Hop25)         // proactive SI-CDS
//	res := nw.BroadcastStatic(static, source)       // broadcast over it
//	dyn := nw.DynamicBroadcast(core.Hop25, source)  // on-demand SD-CDS
//	fmt.Println(static.Size(), res.ForwardCount(), dyn.ForwardCount())
package core

import (
	"fmt"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/dynamicb"
	"clustercast/internal/geom"
	"clustercast/internal/graph"
	"clustercast/internal/mocds"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

// Mode re-exports the coverage-set variants.
type Mode = coverage.Mode

// Coverage-set variants (see the paper's Figure 1): Hop25 tracks
// clusterheads with members within 2 hops; Hop3 tracks every clusterhead
// within 3 hops.
const (
	Hop25 = coverage.Hop25
	Hop3  = coverage.Hop3
)

// NetworkSpec describes a random MANET scenario.
type NetworkSpec struct {
	// N is the number of nodes (required).
	N int
	// AvgDegree is the target average node degree; the transmission range
	// is derived from it (paper: 6 or 18). Ignored when Radius is set.
	AvgDegree float64
	// Radius optionally fixes the transmission range directly.
	Radius float64
	// Side is the side length of the square working space (default 100).
	Side float64
	// Seed makes the scenario reproducible.
	Seed uint64
	// AllowDisconnected keeps disconnected samples instead of resampling.
	AllowDisconnected bool
	// BuildWorkers shards the unit-disk construction over this many
	// goroutines when > 1. The sharded build is bit-identical to the
	// sequential reference for any worker count, so the resulting network
	// never depends on this.
	BuildWorkers int
}

// Network is a clustered MANET snapshot: positions, unit disk graph, and
// the lowest-ID clustering all algorithms share.
type Network struct {
	// Topology holds positions, radius, bounds and the unit disk graph.
	Topology *topology.Network
	// Clustering is the lowest-ID clustering of the graph.
	Clustering *cluster.Clustering
}

// NewRandomNetwork draws a random connected network per the spec and
// clusters it.
func NewRandomNetwork(spec NetworkSpec) (*Network, error) {
	side := spec.Side
	if side == 0 {
		side = 100
	}
	r := rng.NewLabeled(spec.Seed, "core-network")
	cfg := topology.Config{
		N:                spec.N,
		Bounds:           geom.Square(side),
		AvgDegree:        spec.AvgDegree,
		Radius:           spec.Radius,
		RequireConnected: !spec.AllowDisconnected,
	}
	// A single-use workspace: the returned network keeps its buffers
	// alive, and nothing re-generates over it.
	tws := topology.NewWorkspace()
	tws.BuildWorkers = spec.BuildWorkers
	nw, err := topology.GenerateWith(cfg, tws, r)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return FromTopology(nw), nil
}

// FromTopology wraps an existing topology snapshot.
func FromTopology(nw *topology.Network) *Network {
	return &Network{Topology: nw, Clustering: cluster.LowestID(nw.G)}
}

// FromGraph wraps a bare graph (no positions) — useful for hand-crafted
// networks like the paper's Figure 3 example.
func FromGraph(g *graph.Graph) *Network {
	return &Network{
		Topology:   &topology.Network{G: g},
		Clustering: cluster.LowestID(g),
	}
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.Topology.G.N() }

// Graph returns the unit disk graph.
func (nw *Network) Graph() *graph.Graph { return nw.Topology.G }

// Heads returns the clusterheads, ascending.
func (nw *Network) Heads() []int { return nw.Clustering.Heads }

// StaticBackbone builds the paper's static backbone (cluster-based
// SI-CDS) under the given coverage mode.
func (nw *Network) StaticBackbone(mode Mode) *backbone.Static {
	return backbone.BuildStatic(nw.Topology.G, nw.Clustering, mode)
}

// MOCDS builds the message-optimal CDS baseline of Alzoubi et al.
func (nw *Network) MOCDS() *mocds.CDS {
	return mocds.Build(nw.Topology.G, nw.Clustering)
}

// DynamicProtocol returns the reusable dynamic-backbone (SD-CDS) broadcast
// protocol for this network.
func (nw *Network) DynamicProtocol(mode Mode) *dynamicb.Protocol {
	return dynamicb.New(nw.Topology.G, nw.Clustering, mode)
}

// DynamicBroadcast runs one dynamic-backbone broadcast from source.
func (nw *Network) DynamicBroadcast(mode Mode, source int) *broadcast.Result {
	return nw.DynamicProtocol(mode).Broadcast(source)
}

// BroadcastStatic broadcasts from source over a static backbone: the
// source plus every backbone node forwards.
func (nw *Network) BroadcastStatic(s *backbone.Static, source int) *broadcast.Result {
	return broadcast.Run(nw.Topology.G, source, broadcast.StaticCDS{Set: s.Nodes, Label: "static-" + s.Mode.String()})
}

// BroadcastMOCDS broadcasts from source over the MO_CDS.
func (nw *Network) BroadcastMOCDS(c *mocds.CDS, source int) *broadcast.Result {
	return broadcast.Run(nw.Topology.G, source, broadcast.StaticCDS{Set: c.Nodes, Label: "mo-cds"})
}

// Flood runs blind flooding from source — the broadcast-storm baseline.
func (nw *Network) Flood(source int) *broadcast.Result {
	return broadcast.Run(nw.Topology.G, source, broadcast.Flooding{})
}

// Summary describes a network and its backbones at a glance.
type Summary struct {
	N             int
	Edges         int
	AvgDegree     float64
	MaxDegree     int
	Clusters      int
	Static25Size  int
	Static3Size   int
	MOCDSSize     int
	Diameter      int
	TransmitRange float64
	// CutVertices counts the topology's single points of failure.
	CutVertices int
	// Clustering is the global clustering coefficient (UDGs: high).
	Clustering float64
}

// Summarize computes the summary (diameter is −1 for disconnected
// networks).
func (nw *Network) Summarize() Summary {
	g := nw.Topology.G
	return Summary{
		N:             g.N(),
		Edges:         g.M(),
		AvgDegree:     g.AvgDegree(),
		MaxDegree:     g.MaxDegree(),
		Clusters:      nw.Clustering.NumClusters(),
		Static25Size:  nw.StaticBackbone(Hop25).Size(),
		Static3Size:   nw.StaticBackbone(Hop3).Size(),
		MOCDSSize:     nw.MOCDS().Size(),
		Diameter:      g.Diameter(),
		TransmitRange: nw.Topology.Radius,
		CutVertices:   len(g.CutVertices()),
		Clustering:    g.ClusteringCoefficient(),
	}
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf(
		"n=%d m=%d avg-deg=%.2f max-deg=%d clusters=%d static2.5=%d static3=%d mo-cds=%d diam=%d range=%.2f cut=%d cc=%.2f",
		s.N, s.Edges, s.AvgDegree, s.MaxDegree, s.Clusters,
		s.Static25Size, s.Static3Size, s.MOCDSSize, s.Diameter, s.TransmitRange,
		s.CutVertices, s.Clustering)
}
