package graph

import "sync"

// Scratch is reusable traversal workspace: an epoch-stamped visited array
// and a preallocated frontier queue. Reusing one Scratch across traversals
// makes BFS and connectivity checks allocation-free in steady state —
// resetting costs one epoch increment, not an O(n) clear.
//
// A Scratch is not safe for concurrent use; use one per goroutine (the
// package-level pool hands them out cheaply).
type Scratch struct {
	mark  []uint32 // mark[v] == epoch ⇔ v visited in the current traversal
	epoch uint32
	queue []int
	dist  []int // per-node hop counts for BFSWith
}

// NewScratch returns a scratch sized for graphs of up to n nodes. It grows
// on demand, so sizing is only a preallocation hint.
func NewScratch(n int) *Scratch {
	return &Scratch{
		mark:  make([]uint32, n),
		queue: make([]int, 0, n),
		dist:  make([]int, n),
	}
}

// begin readies the scratch for a traversal over n nodes and returns the
// epoch stamp to mark visited nodes with.
func (s *Scratch) begin(n int) uint32 {
	if len(s.mark) < n {
		grown := make([]uint32, n)
		copy(grown, s.mark)
		s.mark = grown
		s.dist = make([]int, n)
	}
	s.epoch++
	if s.epoch == 0 {
		// uint32 wraparound: stale stamps could collide with epoch 0, so do
		// the one O(n) clear every 2³² traversals.
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 1
	}
	s.queue = s.queue[:0]
	return s.epoch
}

// visit marks v and enqueues it; reports false when v was already visited.
func (s *Scratch) visit(v int, epoch uint32) bool {
	if s.mark[v] == epoch {
		return false
	}
	s.mark[v] = epoch
	s.queue = append(s.queue, v)
	return true
}

// scratchPool recycles Scratch instances for the convenience methods
// (Connected, Eccentricity, …) so steady-state measurement loops allocate
// nothing even without threading a Scratch explicitly.
var scratchPool = sync.Pool{New: func() any { return NewScratch(0) }}

// getScratch borrows a pooled scratch; release it with putScratch.
func getScratch() *Scratch  { return scratchPool.Get().(*Scratch) }
func putScratch(s *Scratch) { scratchPool.Put(s) }

// ConnectedWith reports whether g is connected, reusing the scratch.
func (g *Graph) ConnectedWith(s *Scratch) bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	epoch := s.begin(n)
	s.visit(0, epoch)
	seen := 1
	for qi := 0; qi < len(s.queue); qi++ {
		u := s.queue[qi]
		for _, v := range g.Neighbors(u) {
			if s.visit(v, epoch) {
				seen++
			}
		}
	}
	return seen == n
}

// BFSWith runs a breadth-first search from src reusing the scratch and
// appends (node, dist) pairs in visit order via fn. It allocates nothing.
func (g *Graph) BFSWith(s *Scratch, src int, fn func(v, dist int)) {
	epoch := s.begin(g.N())
	s.visit(src, epoch)
	s.dist[src] = 0
	fn(src, 0)
	for qi := 0; qi < len(s.queue); qi++ {
		u := s.queue[qi]
		du := s.dist[u]
		for _, v := range g.Neighbors(u) {
			if s.visit(v, epoch) {
				s.dist[v] = du + 1
				fn(v, du+1)
			}
		}
	}
}

// InducedConnected reports whether the subgraph induced by the members of
// set is connected (sets of size 0 or 1 count as connected), reusing the
// scratch. It is the connectivity half of the CDS predicate.
func (g *Graph) InducedConnected(s *Scratch, set *Bitset) bool {
	count := set.Count()
	if count <= 1 {
		return true
	}
	epoch := s.begin(g.N())
	s.visit(set.Min(), epoch)
	seen := 1
	for qi := 0; qi < len(s.queue); qi++ {
		u := s.queue[qi]
		for _, v := range g.Neighbors(u) {
			if set.Has(v) && s.visit(v, epoch) {
				seen++
			}
		}
	}
	return seen == count
}
