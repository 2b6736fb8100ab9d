package mocds

import (
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/des"
	"clustercast/internal/graph"
	"clustercast/internal/obs"
)

// Baseline-construction metrics, folded once per CDS build.
var (
	mBuilds = obs.NewCounter("mocds.builds")
	mNodes  = obs.NewCounter("mocds.nodes_selected")
)

// Workspace owns the scratch one MO_CDS size computation needs, so a
// worker can evaluate the baseline across replicates without allocating.
type Workspace struct {
	// BuildWorkers cuts NodesFrom's per-clusterhead connector folds into
	// this many contiguous head strips, run on as many goroutines (one
	// strip, on the caller's goroutine, when ≤ 1). Each head's fold
	// depends only on its own coverage set, so the CDS is bit-identical
	// for any value.
	BuildWorkers int

	sh     des.Shards
	strips []foldStrip
	nodes  graph.Bitset

	// The inputs of the NodesFrom call in progress, read by its strips.
	b  *coverage.Builder
	cl *cluster.Clustering
}

// foldStrip is one head strip's private state: coverage assembly scratch,
// the coverage value refilled per head, the epoch-stamped seen arrays of
// the first-sighting fold, and the bitset accumulating its selections
// (strip 0 accumulates into the workspace's own).
type foldStrip struct {
	asm   coverage.AsmScratch
	cov   coverage.Coverage
	seen2 []uint32 // epoch-stamped: 2-hop clusterhead already connected
	seen3 []uint32 // epoch-stamped: 3-hop clusterhead already connected
	epoch uint32
	nodes graph.Bitset
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// SizeFrom returns the MO_CDS size, NodesFrom(b, cl).Count().
func (ws *Workspace) SizeFrom(b *coverage.Builder, cl *cluster.Clustering) int {
	return ws.NodesFrom(b, cl).Count()
}

// NodesFrom computes the MO_CDS membership into a workspace-owned bitset
// (valid until the next call on the workspace).
//
// Each head connects every 2-hop clusterhead through its lowest-ID
// connector and every 3-hop clusterhead through the lexicographically
// smallest (gateway, relay) pair. The fold relies on the deterministic
// layout of coverage sets: Conns is ascending by neighbor ID, and each
// connector's Indirect run keeps the lowest-ID relay per clusterhead, so
// scanning connectors in order and taking the FIRST sighting of each
// clusterhead picks exactly those connectors. The tests hold it to a map
// fold that keeps the smallest connector per clusterhead.
func (ws *Workspace) NodesFrom(b *coverage.Builder, cl *cluster.Clustering) *graph.Bitset {
	if b.Mode() != coverage.Hop3 {
		panic("mocds: MO_CDS requires a 3-hop coverage builder")
	}
	ws.b, ws.cl = b, cl
	ws.sh.ResetRange(len(cl.Heads), ws.BuildWorkers)
	k := ws.sh.K()
	for len(ws.strips) < k {
		ws.strips = append(ws.strips, foldStrip{})
	}
	if k == 1 {
		ws.foldStrip(0)
	} else {
		ws.sh.Each(ws.BuildWorkers, ws.foldStrip)
	}
	for s := 1; s < k; s++ {
		ws.nodes.Or(&ws.strips[s].nodes)
	}
	if obs.Enabled() {
		mBuilds.Inc()
		mNodes.Add(int64(ws.nodes.Count()))
	}
	return &ws.nodes
}

// foldStrip folds the connector selections of head strip s.
func (ws *Workspace) foldStrip(s int) {
	st := &ws.strips[s]
	nodes := &st.nodes
	if s == 0 {
		nodes = &ws.nodes
	}
	n := ws.b.N()
	nodes.Reset(n)
	if cap(st.seen2) < n {
		st.seen2 = make([]uint32, n)
		st.seen3 = make([]uint32, n)
		st.epoch = 0
	}
	seen2, seen3 := st.seen2[:n], st.seen3[:n]
	lo, hi := ws.sh.Range(s)
	for _, h := range ws.cl.Heads[lo:hi] {
		nodes.Add(h)
		st.epoch++
		if st.epoch == 0 { // wrapped: stale marks could collide, start over
			clear(st.seen2[:cap(st.seen2)])
			clear(st.seen3[:cap(st.seen3)])
			st.epoch = 1
		}
		ep := st.epoch
		cov := ws.b.OfScratch(h, &st.cov, &st.asm)
		var d0, i0 int32
		for _, cn := range cov.Conns {
			v := int(cn.V)
			for _, w := range cov.Direct[d0:cn.DirEnd] {
				if seen2[w] != ep {
					seen2[w] = ep
					nodes.Add(v)
				}
			}
			for _, e := range cov.Indirect[i0:cn.IndEnd] {
				if seen3[e.W] != ep {
					seen3[e.W] = ep
					nodes.Add(v)
					nodes.Add(int(e.R))
				}
			}
			d0, i0 = cn.DirEnd, cn.IndEnd
		}
	}
}
