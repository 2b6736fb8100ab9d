package cluster

import "clustercast/internal/graph"

// ParallelWorkspace is a Workspace behind the signature of the former
// sharded worklist election. On two cores that election was slower than
// Workspace at every size from n=100 to n=1M, so it was deleted.
//
// Deprecated: use Workspace.
type ParallelWorkspace struct {
	ws *Workspace
}

// NewParallelWorkspace returns an empty workspace. The Clustering
// returned by LowestID is owned by the workspace and valid only until
// the next election on it.
//
// Deprecated: use NewWorkspace.
func NewParallelWorkspace() *ParallelWorkspace {
	return &ParallelWorkspace{ws: NewWorkspace()}
}

// LowestID runs Workspace.LowestID; workers is ignored.
//
// Deprecated: use Workspace.LowestID.
func (pw *ParallelWorkspace) LowestID(g *graph.Graph, workers int) *Clustering {
	return pw.ws.LowestID(g)
}
