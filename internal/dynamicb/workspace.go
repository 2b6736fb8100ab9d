package dynamicb

import (
	"clustercast/internal/backbone"
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/graph"
)

// Workspace owns a coverage builder, a protocol and its packet/set
// arenas, so a worker can rebuild the dynamic-backbone protocol for a new
// network every replicate without allocating in steady state.
type Workspace struct {
	// BuildWorkers cuts NewWith's coverage digest and per-clusterhead
	// coverage assembly into this many strips, run on as many goroutines
	// (one strip, on the caller's goroutine, when ≤ 1). The protocol is
	// bit-identical for any value.
	BuildWorkers int

	builder coverage.Builder
	proto   Protocol
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace {
	ws := &Workspace{}
	ws.proto.sel = backbone.NewWorkspace()
	ws.proto.reuse = true
	return ws
}

// NewWith builds the dynamic-backbone protocol for a clustered network
// under the given coverage-set mode, reusing every workspace buffer. The
// returned protocol — and any result derived from a prior one — is valid
// only until the next NewWith call on the same workspace.
func (ws *Workspace) NewWith(g *graph.Graph, cl *cluster.Clustering, mode coverage.Mode) *Protocol {
	ws.builder.ResetParallel(g, cl, mode, ws.BuildWorkers)
	ws.proto.init(&ws.builder, g, cl, ws.BuildWorkers)
	return &ws.proto
}
