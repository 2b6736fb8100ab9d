// Package fwdtree implements the cluster-based forwarding tree of Pagani
// and Rossi (Mobile Networks and Applications, 1999), discussed in the
// paper's related work: a tree rooted at the clusterhead of the broadcast
// source that alternates clusterhead → gateway(s) → clusterhead levels
// until every cluster has joined. The paper's criticism — "such a
// forwarding tree is hard to maintain in MANETs" — is exactly the
// motivation for its on-demand dynamic backbone; the tree is implemented
// here as the third point of that design space (proactive tree vs
// proactive CDS vs on-demand CDS).
//
// Construction: breadth-first over the cluster graph from the root
// cluster. When cluster w joins through tree cluster v, the connecting
// gateway (2-hop clusterhead) or gateway pair (3-hop clusterhead) recorded
// in v's coverage set becomes part of the tree and remembers its upstream
// and downstream, giving every node a parent path to the root.
package fwdtree

import (
	"fmt"
	"sort"

	"clustercast/internal/cluster"
	"clustercast/internal/coverage"
	"clustercast/internal/graph"
)

// pair is a (gateway, relay) attachment for a 3-hop cluster.
type pair struct{ f, r int }

// sortedKeys3 returns the keys of a cluster→pair map in ascending order.
func sortedKeys3(m map[int]pair) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Tree is a cluster-based forwarding tree.
type Tree struct {
	// Root is the clusterhead of the source's cluster.
	Root int
	// Parent maps every tree node except the root to its parent toward
	// the root. Parent edges are graph edges.
	Parent map[int]int
	// Nodes is the tree membership (clusterheads + connecting gateways).
	Nodes *graph.Bitset
}

// Size returns the number of tree nodes.
func (t *Tree) Size() int { return t.Nodes.Count() }

// Depth returns the maximum parent-chain length from any tree node to the
// root.
func (t *Tree) Depth() int {
	depth := 0
	t.Nodes.ForEach(func(v int) {
		d := 0
		for v != t.Root {
			v = t.Parent[v]
			d++
		}
		depth = max(depth, d)
	})
	return depth
}

// sortedKeys2 returns the keys of a cluster→gateway map in ascending
// order, for deterministic tree construction.
func sortedKeys2(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Build constructs the forwarding tree for broadcasts whose source lives
// in the cluster of source. The builder must cover the same clustering.
func Build(b *coverage.Builder, cl *cluster.Clustering, source int) (*Tree, error) {
	root := cl.Head[source]
	t := &Tree{
		Root:   root,
		Parent: make(map[int]int),
		Nodes:  graph.NewBitset(b.N()),
	}
	t.Nodes.Add(root)
	joined := map[int]bool{root: true}
	frontier := []int{root}
	for len(frontier) > 0 {
		var next []int
		for _, v := range frontier {
			cov := b.Of(v)
			// 2-hop clusterheads first (shorter attachment), each via its
			// lowest-ID direct gateway.
			gate2 := make(map[int]int)
			for i, cn := range cov.Conns {
				direct, _ := cov.Runs(i)
				for _, w := range direct {
					w, gw := int(w), int(cn.V)
					if joined[w] {
						continue
					}
					if prev, ok := gate2[w]; !ok || gw < prev {
						gate2[w] = gw
					}
				}
			}
			for _, w := range sortedKeys2(gate2) {
				gw := gate2[w]
				joined[w] = true
				t.Nodes.Add(gw)
				t.Nodes.Add(w)
				if _, ok := t.Parent[gw]; !ok {
					t.Parent[gw] = v
				}
				t.Parent[w] = gw
				next = append(next, w)
			}
			// Remaining 3-hop clusterheads via gateway pairs.
			gate3 := make(map[int]pair)
			for i, cn := range cov.Conns {
				_, indirect := cov.Runs(i)
				for _, e := range indirect {
					w, f, r := int(e.W), int(cn.V), int(e.R)
					if joined[w] {
						continue
					}
					p, ok := gate3[w]
					if !ok || f < p.f || (f == p.f && r < p.r) {
						gate3[w] = pair{f, r}
					}
				}
			}
			for _, w := range sortedKeys3(gate3) {
				p := gate3[w]
				if joined[w] {
					continue
				}
				joined[w] = true
				t.Nodes.Add(p.f)
				t.Nodes.Add(p.r)
				t.Nodes.Add(w)
				if _, ok := t.Parent[p.f]; !ok {
					t.Parent[p.f] = v
				}
				if _, ok := t.Parent[p.r]; !ok {
					t.Parent[p.r] = p.f
				}
				t.Parent[w] = p.r
				next = append(next, w)
			}
		}
		frontier = next
	}
	for _, h := range cl.Heads {
		if !joined[h] {
			return nil, fmt.Errorf("fwdtree: cluster %d unreachable from root %d", h, root)
		}
	}
	return t, nil
}

// Verify checks the structural invariants: every parent edge is a graph
// edge, every tree node reaches the root, and the node set is a CDS of g
// (it contains all clusterheads and is connected through the parent
// edges).
func (t *Tree) Verify(g *graph.Graph, cl *cluster.Clustering) error {
	for v, p := range t.Parent {
		if !g.HasEdge(v, p) {
			return fmt.Errorf("fwdtree: parent edge %d-%d is not a graph edge", v, p)
		}
		if !t.Nodes.Has(v) || !t.Nodes.Has(p) {
			return fmt.Errorf("fwdtree: parent edge %d-%d leaves the node set", v, p)
		}
	}
	size := t.Size()
	for _, v := range t.Nodes.Members() {
		seen := 0
		for x := v; x != t.Root; x = t.Parent[x] {
			if _, ok := t.Parent[x]; !ok {
				return fmt.Errorf("fwdtree: node %d has no path to the root", v)
			}
			seen++
			if seen > size {
				return fmt.Errorf("fwdtree: parent cycle at node %d", v)
			}
		}
	}
	for _, h := range cl.Heads {
		if !t.Nodes.Has(h) {
			return fmt.Errorf("fwdtree: clusterhead %d missing", h)
		}
	}
	if !g.IsCDSBits(t.Nodes) {
		return fmt.Errorf("fwdtree: tree nodes are not a CDS")
	}
	return nil
}
