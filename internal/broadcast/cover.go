package broadcast

import (
	"math"
	"slices"

	"clustercast/internal/graph"
)

// cover is the scratch of the neighbour-designating relays (MPR, DP,
// PDP) and of SBA's coverage test. It reads N(v) from the graph's CSR rows
// and computes a node's 2-hop neighbourhood on demand, one stamp per node:
// a node is excluded (in the closed neighbourhood of the sender, or of an
// upstream whose transmission already reached it), an uncovered target,
// or neither. begin retires every stamp of the previous query at once.
//
// A cover is not safe for concurrent use.
type cover struct {
	g *graph.Graph
	// stamp[w] == ex: w is excluded; == tg: w is an uncovered target. A
	// covered target is stamped 0, which no query's ex or tg ever is.
	stamp  []uint32
	ex, tg uint32
	// sole[w] is the one neighbour of the sender whose row holds target w,
	// or -1 when several do (MPR's first stage).
	sole   []int32
	live   int     // targets not yet covered
	cands  []int32 // ascending
	common []int32 // PDP's common neighbours
}

func newCover(g *graph.Graph) *cover {
	return &cover{g: g, stamp: make([]uint32, g.N()), sole: make([]int32, g.N())}
}

// begin starts a query with two fresh stamp values.
func (s *cover) begin() {
	if s.tg > math.MaxUint32-2 {
		// uint32 wraparound: a stale stamp could equal a fresh value, so
		// clear once every 2³¹ queries.
		clear(s.stamp)
		s.tg = 0
	}
	s.ex, s.tg = s.tg+1, s.tg+2
	s.live = 0
}

// exclude stamps the closed neighbourhood N[x] excluded.
func (s *cover) exclude(x int) {
	s.stamp[x] = s.ex
	for _, w := range s.g.Neighbors(x) {
		s.stamp[w] = s.ex
	}
}

// prepare sets up the query of sender v that heard the packet from
// upstream u (u < 0 for the source). The candidates are the neighbours of
// v that u's transmission did not reach. The targets are the nodes at
// distance exactly 2 from v that it did not reach either, less, when
// partial, the neighbours of the common neighbours of u and v.
func (s *cover) prepare(v, u int, partial bool) {
	s.begin()
	s.cands, s.common = s.cands[:0], s.common[:0]
	if u >= 0 {
		s.exclude(u)
	}
	for _, c := range s.g.Neighbors(v) {
		if s.stamp[c] != s.ex {
			s.cands = append(s.cands, c)
		} else if partial && int(c) != u {
			s.common = append(s.common, c) // c ∈ N(u) ∩ N(v)
		}
	}
	s.exclude(v)
	for _, c := range s.g.Neighbors(v) {
		for _, w := range s.g.Neighbors(int(c)) {
			switch s.stamp[w] {
			case s.ex:
			case s.tg:
				s.sole[w] = -1
			default:
				s.stamp[w] = s.tg
				s.sole[w] = c
				s.live++
			}
		}
	}
	for _, c := range s.common {
		s.drop(c)
	}
}

// drop marks the targets in N(c) covered.
func (s *cover) drop(c int32) {
	for _, w := range s.g.Neighbors(int(c)) {
		if s.stamp[w] == s.tg {
			s.stamp[w] = 0
			s.live--
		}
	}
}

// greedy appends to out candidates whose rows cover every coverable
// target, repeatedly the candidate covering the most uncovered targets
// with ties to the lowest ID, and returns out sorted. Targets no candidate
// covers stay uncovered. The strict > from a zero gain is the tie-break
// and the progress guarantee: every chosen candidate covers a target.
func (s *cover) greedy(out []int32) []int32 {
	for s.live > 0 {
		best, bestGain := int32(-1), 0
		for _, c := range s.cands {
			gain := 0
			for _, w := range s.g.Neighbors(int(c)) {
				if s.stamp[w] == s.tg {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = c, gain
			}
		}
		if best < 0 {
			break
		}
		out = append(out, best)
		s.drop(best)
	}
	slices.Sort(out)
	return out
}
