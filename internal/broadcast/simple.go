package broadcast

import (
	"fmt"

	"clustercast/internal/graph"
	"clustercast/internal/rng"
)

// Flooding is blind flooding: every node forwards the packet on first
// reception. It is the upper baseline of the broadcast storm problem — the
// forward node set is the entire (reached) network.
type Flooding struct{ NoDuplicates }

// Name implements Protocol.
func (Flooding) Name() string { return "flooding" }

// Start implements Protocol.
func (Flooding) Start(source int) Packet { return nil }

// OnReceive implements Protocol.
func (Flooding) OnReceive(v, x int, pkt Packet) (bool, Packet) { return true, nil }

// Gossip forwards with fixed probability P. The per-node coin flips are
// derived deterministically from Seed so that repeated runs of one
// experiment replicate exactly.
type Gossip struct {
	NoDuplicates
	P    float64
	Seed uint64
}

// Name implements Protocol.
func (g Gossip) Name() string { return fmt.Sprintf("gossip(%.2f)", g.P) }

// Start implements Protocol.
func (g Gossip) Start(source int) Packet { return nil }

// OnReceive implements Protocol.
func (g Gossip) OnReceive(v, x int, pkt Packet) (bool, Packet) {
	// The stream must depend on seed and node jointly (nodeHash), not
	// additively: Seed+v·odd made node v+1 under seed s share its coin with
	// node v under seed s+odd, correlating adjacent replicates.
	r := rng.NewLabeled(nodeHash(g.Seed, v), "gossip")
	return r.Bool(g.P), nil
}

// StaticCDS forwards through a precomputed source-independent CDS: a node
// relays iff it belongs to the set. Used to broadcast over the cluster-based
// static backbone and over the MO_CDS baseline (paper §3, "Broadcasting in
// a Cluster-Based SI-CDS Backbone").
type StaticCDS struct {
	NoDuplicates
	// Set is the CDS membership.
	Set *graph.Bitset
	// Label distinguishes which CDS is in use in experiment output.
	Label string
}

// StaticCDSBits is an alias of StaticCDS, kept from when StaticCDS held a
// map and this type the bitset form.
//
// Deprecated: use StaticCDS. Only pipebench names the alias.
type StaticCDSBits = StaticCDS

// Name implements Protocol.
func (s StaticCDS) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "static-cds"
}

// Start implements Protocol.
func (s StaticCDS) Start(source int) Packet { return nil }

// OnReceive implements Protocol.
func (s StaticCDS) OnReceive(v, x int, pkt Packet) (bool, Packet) {
	return s.Set.Has(v), nil
}
