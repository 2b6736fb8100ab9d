package topology

import (
	"slices"

	"clustercast/internal/geom"
	"clustercast/internal/graph"
)

// Dynamic maintains a unit disk graph incrementally under node mobility.
// Instead of rebuilding the whole graph after every mobility step —
// O(n·deg) even when only a handful of nodes moved — it re-tests only the
// grid cells touched by the moved nodes and repairs the affected adjacency
// lists in place, O(moved·deg) per step. When most nodes moved it falls
// back to a full re-sweep over the reused buffers, so a step never costs
// more than a rebuild.
//
// Positions must stay inside the bounds the updater was created with (the
// mobility models reflect or clamp at the boundary, so this always holds
// for them). The Network returned by Step/Network aliases the updater's
// internal state and is valid only until the next Step.
type Dynamic struct {
	positions []geom.Point
	radius    float64
	bounds    geom.Rect
	grid      geom.Grid
	nbrs      [][]int // per-node sorted neighbor lists, each owning its backing
	g         graph.Graph
	nw        Network

	epoch     uint32
	movedMark []uint32 // epoch-stamped: node moved this step
	affMark   []uint32 // epoch-stamped: node's list needs repair this step
	moved     []int
	affected  []int
	adds      []uint64 // packed (w<<32 | t): re-add t to w's list
}

// NewDynamic builds an incremental updater seeded from nw. The network is
// copied; the caller's nw is not retained.
func NewDynamic(nw *Network) *Dynamic {
	if nw.Radius <= 0 {
		panic("topology: Dynamic requires a positive radius")
	}
	n := nw.N()
	d := &Dynamic{
		positions: append([]geom.Point(nil), nw.Positions...),
		radius:    nw.Radius,
		bounds:    nw.Bounds,
		nbrs:      make([][]int, n),
		movedMark: make([]uint32, n),
		affMark:   make([]uint32, n),
	}
	d.grid.Reset(nw.Bounds, nw.Radius, n)
	for _, p := range d.positions {
		d.grid.Insert(p)
	}
	for u := 0; u < n; u++ {
		d.nbrs[u] = append([]int(nil), nw.G.Neighbors(u)...)
	}
	d.g.RenewSorted(d.nbrs)
	d.nw = Network{Positions: d.positions, Radius: d.radius, Bounds: d.bounds, G: &d.g}
	return d
}

// Network returns the current snapshot. It aliases internal state and is
// valid only until the next Step.
func (d *Dynamic) Network() *Network { return &d.nw }

// Step updates the graph to the new positions (one entry per node, same
// order as at construction) and returns the refreshed snapshot. Nodes are
// considered moved when their position differs bit-for-bit from the stored
// one, so mobility models that leave paused nodes untouched get the sparse
// path for free.
func (d *Dynamic) Step(pos []geom.Point) *Network {
	n := len(d.positions)
	if len(pos) != n {
		panic("topology: Dynamic.Step with mismatched position count")
	}
	moved := d.moved[:0]
	for i := 0; i < n; i++ {
		if pos[i] != d.positions[i] {
			moved = append(moved, i)
		}
	}
	d.moved = moved
	if 4*len(moved) >= n {
		d.rebuildAll(pos)
	} else if len(moved) > 0 {
		d.repair(pos)
	}
	return &d.nw
}

// rebuildAll recomputes every adjacency list after applying the new
// positions — the dense regime. The grid is maintained by Move (cheap),
// and each list is refilled into its own backing, so nothing allocates in
// steady state.
func (d *Dynamic) rebuildAll(pos []geom.Point) {
	for _, t := range d.moved {
		d.positions[t] = pos[t]
		d.grid.Move(t, pos[t])
	}
	for u := range d.nbrs {
		l := d.grid.Within(u, d.radius, d.nbrs[u][:0])
		graph.SortNeighbors(l)
		d.nbrs[u] = l
	}
	d.g.RenewSorted(d.nbrs)
}

// repair is the sparse regime: only the moved set T and the nodes adjacent
// to T before or after the step are touched.
//
//  1. The pre-move neighbors of T are collected as affected, then the moved
//     nodes are relocated in the grid.
//  2. Each moved node's list is recomputed from scratch via a grid range
//     query; every current neighbor w ∉ T is marked affected and a packed
//     (w, t) re-add pair is recorded. Because this records ALL current
//     T-neighbors of w — surviving and new alike — step 3+4 below is a
//     correct replacement of w's T-slice.
//  3. Every affected list is compacted: all members of T are removed.
//  4. The re-add pairs are sorted (grouping by w, ascending t within a
//     group) and merged back into the compacted sorted lists.
func (d *Dynamic) repair(pos []geom.Point) {
	d.epoch++
	ep := d.epoch
	for _, t := range d.moved {
		d.movedMark[t] = ep
	}
	affected := d.affected[:0]
	for _, t := range d.moved {
		for _, w := range d.nbrs[t] {
			if d.movedMark[w] != ep && d.affMark[w] != ep {
				d.affMark[w] = ep
				affected = append(affected, w)
			}
		}
	}
	for _, t := range d.moved {
		d.positions[t] = pos[t]
		d.grid.Move(t, pos[t])
	}
	adds := d.adds[:0]
	for _, t := range d.moved {
		l := d.grid.Within(t, d.radius, d.nbrs[t][:0])
		graph.SortNeighbors(l)
		d.nbrs[t] = l
		for _, w := range l {
			if d.movedMark[w] == ep {
				continue
			}
			if d.affMark[w] != ep {
				d.affMark[w] = ep
				affected = append(affected, w)
			}
			adds = append(adds, uint64(w)<<32|uint64(t))
		}
	}
	d.affected = affected
	for _, w := range affected {
		l := d.nbrs[w]
		o := 0
		for _, v := range l {
			if d.movedMark[v] != ep {
				l[o] = v
				o++
			}
		}
		d.nbrs[w] = l[:o]
	}
	slices.Sort(adds)
	d.adds = adds
	for i := 0; i < len(adds); {
		w := int(adds[i] >> 32)
		j := i + 1
		for j < len(adds) && int(adds[j]>>32) == w {
			j++
		}
		d.mergeInto(w, adds[i:j])
		i = j
	}
	d.g.RenewSorted(d.nbrs)
}

// mergeInto merges the t values of the packed (w, t) pairs — already
// ascending in t — into w's sorted list, backwards and in place.
func (d *Dynamic) mergeInto(w int, packed []uint64) {
	l := d.nbrs[w]
	oldLen := len(l)
	k := len(packed)
	l = slices.Grow(l, k)[:oldLen+k]
	i, j, o := oldLen-1, k-1, oldLen+k-1
	for j >= 0 {
		t := int(packed[j] & 0xffffffff)
		if i >= 0 && l[i] > t {
			l[o] = l[i]
			i--
		} else {
			l[o] = t
			j--
		}
		o--
	}
	d.nbrs[w] = l
}
