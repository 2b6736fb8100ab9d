package backbone

import (
	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/des"
	"clustercast/internal/graph"
)

// Workspace owns the bitsets and scratch one gateway-selection pipeline
// needs, so a worker can compute backbone sizes and node sets across
// replicates without allocating.
type Workspace struct {
	// BuildWorkers cuts StaticNodes' per-clusterhead selections into this
	// many contiguous head strips, run on as many goroutines (one strip,
	// on the caller's goroutine, when ≤ 1). Each head's selection depends
	// only on its own coverage set, so the backbone is bit-identical for
	// any value.
	BuildWorkers int

	scr    selScratch // SelectInto's scratch
	sh     des.Shards
	strips []selStrip
	nodes  graph.Bitset

	// The inputs of the StaticNodes call in progress, read by its strips.
	b    *coverage.Builder
	cl   *cluster.Clustering
	opts Options
}

// selStrip is one head strip's private state: coverage assembly scratch,
// the coverage value it refills per head, the selection scratch, and the
// bitset accumulating its heads and gateways (strip 0 accumulates into
// the workspace's own). BuildStaticOpt and Repair hold one across their
// head loops and leave the bitset unused.
type selStrip struct {
	asm   coverage.AsmScratch
	cov   coverage.Coverage
	scr   selScratch
	nodes graph.Bitset
}

// NewWorkspace returns an empty workspace; bitsets grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// StaticSize returns BuildStaticOpt(b, cl, opts).Size() — the paper's
// "size of the CDS" — without materializing the Static: no fresh bitset,
// no per-head Selection, no allocations beyond workspace growth.
func (ws *Workspace) StaticSize(b *coverage.Builder, cl *cluster.Clustering, opts Options) int {
	return ws.StaticNodes(b, cl, opts).Count()
}

// Select runs SelectGatewaysOpt's selection for the full coverage set on
// the workspace's scratch, so a loop over many clusterheads sizes the
// n-entry mark array once instead of per head. The returned Selection
// owns its gateway list.
func (ws *Workspace) Select(cov *coverage.Coverage, opts Options) Selection {
	return ws.scr.selection(cov, nil, nil, opts)
}

// SelectInto runs the greedy gateway selection of SelectGatewaysOpt and
// fills dst with the selected nodes, using workspace scratch instead of
// allocating a Selection. dst is reset.
func (ws *Workspace) SelectInto(cov *coverage.Coverage, need2, need3 *graph.SparseSet, opts Options, dst *graph.SparseSet) {
	sel := selectCore(cov, need2, need3, opts, &ws.scr)
	dst.Reset(cov.N)
	for _, v := range sel {
		dst.Add(v)
	}
}

// StaticNodes computes the static backbone membership (all clusterheads
// plus every selected gateway) into a workspace-owned bitset, valid until
// the next StaticNodes/StaticSize call on the workspace. The builder's
// digests are read-only after Reset and every strip assembles coverage
// through its own scratch, so the strips share nothing but the builder;
// their bitsets are OR-merged after all complete.
func (ws *Workspace) StaticNodes(b *coverage.Builder, cl *cluster.Clustering, opts Options) *graph.Bitset {
	ws.b, ws.cl, ws.opts = b, cl, opts
	ws.sh.ResetRange(len(cl.Heads), ws.BuildWorkers)
	k := ws.sh.K()
	for len(ws.strips) < k {
		ws.strips = append(ws.strips, selStrip{})
	}
	if k == 1 {
		ws.selectStrip(0)
	} else {
		ws.sh.Each(ws.BuildWorkers, ws.selectStrip)
	}
	for s := 1; s < k; s++ {
		ws.nodes.Or(&ws.strips[s].nodes)
	}
	return &ws.nodes
}

// selectStrip runs the gateway selections of head strip s.
func (ws *Workspace) selectStrip(s int) {
	st := &ws.strips[s]
	nodes := &st.nodes
	if s == 0 {
		nodes = &ws.nodes
	}
	nodes.Reset(ws.b.N())
	lo, hi := ws.sh.Range(s)
	for _, h := range ws.cl.Heads[lo:hi] {
		nodes.Add(h)
		cov := ws.b.OfScratch(h, &st.cov, &st.asm)
		for _, v := range selectCore(cov, nil, nil, ws.opts, &st.scr) {
			nodes.Add(v)
		}
	}
}
