// Package mocds implements the baseline the paper compares against: the
// message-optimal connected dominating set of Alzoubi, Wan and Frieder
// (MOBIHOC 2002).
//
// Construction (as summarized in the paper's §2): clusterheads are elected
// by the lowest-ID clustering algorithm; each clusterhead then learns its
// 2-hop and 3-hop clusterheads through two rounds of neighborhood exchange
// and selects *one node* to connect each 2-hop clusterhead and *one pair of
// nodes* to connect each 3-hop clusterhead. All clusterheads and selected
// nodes form the CDS.
//
// The crucial difference from the paper's static backbone is the missing
// greedy set-cover step: MO_CDS picks a connector per covered clusterhead
// independently (here: the lowest-ID connector, a deterministic stand-in
// for the arbitrary choice in the original), so one node serving several
// clusterheads is a coincidence rather than an objective. The paper calls
// MO_CDS "a modified version of the static backbone with the 3-hop
// coverage set".
package mocds

import (
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/graph"
)

// Build constructs the MO_CDS over a clustered network and returns its
// membership: the clusterheads plus the selected connectors. It uses the
// 3-hop coverage information, as in the original algorithm. Each call
// digests the network and folds on a fresh workspace, so the bitset is
// the caller's; replicate loops hold a Workspace and call NodesFrom.
func Build(g *graph.Graph, cl *cluster.Clustering) *graph.Bitset {
	return NewWorkspace().NodesFrom(coverage.NewBuilder(g, cl, coverage.Hop3), cl)
}
