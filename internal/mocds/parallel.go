package mocds

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

// SizeFrom is NodesFrom(...).Count().
//
// Deprecated: use Workspace.SizeFrom.
func (pw *ParallelWorkspace) SizeFrom(b *coverage.Builder, cl *cluster.Clustering, workers int) int {
	return pw.NodesFrom(b, cl, workers).Count()
}

// NodesFrom runs Workspace.NodesFrom with BuildWorkers = workers.
//
// Deprecated: use Workspace.NodesFrom.
func (pw *ParallelWorkspace) NodesFrom(b *coverage.Builder, cl *cluster.Clustering, workers int) *graph.Bitset {
	pw.ws.BuildWorkers = workers
	return pw.ws.NodesFrom(b, cl)
}
