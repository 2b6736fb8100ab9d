// Package mcds provides reference connected-dominating-set algorithms used
// to measure the empirical approximation ratio of the cluster-based
// backbones (the paper's §4 claims a constant ratio to the minimum CDS):
//
//   - Exact: the true minimum CDS by exhaustive subset search in increasing
//     size order, feasible for graphs up to ~24 nodes (bitmask-based).
//   - Greedy: the classic Guha–Khuller growing heuristic, a ln(Δ)
//     approximation usable at any size.
package mcds

import (
	"math/bits"

	"clustercast/internal/graph"
)

// MaxExactNodes bounds the exhaustive search.
const MaxExactNodes = 24

// Exact returns a minimum connected dominating set of g, or nil when g has
// more than MaxExactNodes nodes or is disconnected. For graphs of 0 or 1
// nodes it returns the trivial answers (empty set is not useful for n==1;
// by convention the single node itself is returned, matching the broadcast
// use where at least one transmitter exists).
func Exact(g *graph.Graph) *graph.Bitset {
	n := g.N()
	if n > MaxExactNodes {
		return nil
	}
	out := graph.NewBitset(n)
	if n == 0 {
		return out
	}
	if !g.Connected() {
		return nil
	}
	// closed[v]: bitmask of N[v].
	closed := make([]uint32, n)
	open := make([]uint32, n)
	for v := 0; v < n; v++ {
		m := uint32(1) << uint(v)
		o := uint32(0)
		for _, u := range g.Neighbors(v) {
			o |= 1 << uint(u)
		}
		open[v] = o
		closed[v] = m | o
	}
	all := uint32(1)<<uint(n) - 1

	dominates := func(set uint32) bool {
		cov := uint32(0)
		for s := set; s != 0; s &= s - 1 {
			cov |= closed[bits.TrailingZeros32(s)]
		}
		return cov == all
	}
	connected := func(set uint32) bool {
		if set == 0 {
			return false
		}
		start := uint32(1) << uint(bits.TrailingZeros32(set))
		frontier := start
		seen := start
		for frontier != 0 {
			next := uint32(0)
			for f := frontier; f != 0; f &= f - 1 {
				next |= open[bits.TrailingZeros32(f)]
			}
			next &= set &^ seen
			seen |= next
			frontier = next
		}
		return seen == set
	}

	// Enumerate subsets by increasing size (Gosper's hack per size).
	for k := 1; k <= n; k++ {
		set := uint32(1)<<uint(k) - 1
		for set <= all {
			if set&all == set && dominates(set) && connected(set) {
				for s := set; s != 0; s &= s - 1 {
					out.Add(bits.TrailingZeros32(s))
				}
				return out
			}
			// Gosper's hack: next subset with the same popcount.
			c := set & -set
			r := set + c
			if r > all || r < set {
				break
			}
			set = (((r ^ set) >> 2) / c) | r
		}
	}
	return nil // unreachable for connected graphs: the full set is a CDS
}

// Greedy returns a connected dominating set by the Guha–Khuller growing
// heuristic: start from the node with the most neighbors; repeatedly turn
// the frontier ("gray") node with the most undominated ("white") neighbors
// into a dominator ("black") until every node is dominated. Ties break to
// the lowest ID. The black set induced is connected by construction. For a
// single-node graph it returns that node.
func Greedy(g *graph.Graph) *graph.Bitset {
	n := g.N()
	out := graph.NewBitset(n)
	if n == 0 {
		return out
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, n)
	whiteDeg := func(v int) int {
		d := 0
		for _, u := range g.Neighbors(v) {
			if color[u] == white {
				d++
			}
		}
		return d
	}
	// Seed: node with the most neighbors (all white at the start).
	best := 0
	for v := 1; v < n; v++ {
		if g.Degree(v) > g.Degree(best) {
			best = v
		}
	}
	blacken := func(v int) {
		color[v] = black
		for _, u := range g.Neighbors(v) {
			if color[u] == white {
				color[u] = gray
			}
		}
	}
	color[best] = gray // so blacken sees a consistent state
	blacken(best)
	whites := n - 1 - g.Degree(best)
	for whites > 0 {
		pick, pickDeg := -1, 0
		for v := 0; v < n; v++ {
			if color[v] != gray {
				continue
			}
			if d := whiteDeg(v); d > pickDeg {
				pick, pickDeg = v, d
			}
		}
		if pick == -1 {
			break // disconnected remainder: cannot dominate further
		}
		whites -= pickDeg
		blacken(pick)
	}
	for v := 0; v < n; v++ {
		if color[v] == black {
			out.Add(v)
		}
	}
	return out
}
