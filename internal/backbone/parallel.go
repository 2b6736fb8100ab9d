package backbone

import (
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/graph"
)

// ParallelWorkspace is a Workspace that takes its worker count per call.
//
// Deprecated: set Workspace.BuildWorkers instead.
type ParallelWorkspace struct {
	ws Workspace
}

// NewParallelWorkspace returns an empty workspace.
//
// Deprecated: use NewWorkspace.
func NewParallelWorkspace() *ParallelWorkspace { return &ParallelWorkspace{} }

// StaticSize is StaticNodes(...).Count().
//
// Deprecated: use Workspace.StaticSize.
func (pw *ParallelWorkspace) StaticSize(b *coverage.Builder, cl *cluster.Clustering, opts Options, workers int) int {
	return pw.StaticNodes(b, cl, opts, workers).Count()
}

// StaticNodes runs Workspace.StaticNodes with BuildWorkers = workers.
//
// Deprecated: use Workspace.StaticNodes.
func (pw *ParallelWorkspace) StaticNodes(b *coverage.Builder, cl *cluster.Clustering, opts Options, workers int) *graph.Bitset {
	pw.ws.BuildWorkers = workers
	return pw.ws.StaticNodes(b, cl, opts)
}
