package graph

// CutVertices returns the articulation points of g — nodes whose removal
// disconnects their component — using Tarjan's low-link algorithm
// (iterative). In a MANET these are the single points of failure of the
// topology; a backbone that concentrates on them is fragile.
func (g *Graph) CutVertices() map[int]bool {
	n := g.N()
	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]int, n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	cut := make(map[int]bool)
	timer := 0

	type frame struct {
		v  int
		ei int
	}
	for s := 0; s < n; s++ {
		if disc[s] != -1 {
			continue
		}
		rootChildren := 0
		stack := []frame{{v: s}}
		disc[s] = timer
		low[s] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.ei < len(g.Neighbors(f.v)) {
				w := g.Neighbors(f.v)[f.ei]
				f.ei++
				if disc[w] == -1 {
					parent[w] = f.v
					if f.v == s {
						rootChildren++
					}
					disc[w] = timer
					low[w] = timer
					timer++
					stack = append(stack, frame{v: w})
				} else if w != parent[f.v] && disc[w] < low[f.v] {
					low[f.v] = disc[w]
				}
				continue
			}
			// Post-order: fold v's low into its parent and test the
			// articulation condition.
			v := f.v
			stack = stack[:len(stack)-1]
			if p := parent[v]; p != -1 {
				if low[v] < low[p] {
					low[p] = low[v]
				}
				if p != s && low[v] >= disc[p] {
					cut[p] = true
				}
			}
		}
		if rootChildren >= 2 {
			cut[s] = true
		}
	}
	return cut
}

// Triangles returns the number of triangles in g.
func (g *Graph) Triangles() int {
	count := 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if w > v && g.HasEdge(u, w) {
					count++
				}
			}
		}
	}
	return count
}

// ClusteringCoefficient returns the global clustering coefficient of g:
// 3·triangles / number of connected (open or closed) triples. Unit disk
// graphs are strongly clustered (≈ 0.58 in theory for dense UDGs), far
// above the ~d/n of an Erdős–Rényi graph — one reason MANET broadcast
// redundancy is so high.
func (g *Graph) ClusteringCoefficient() float64 {
	triples := 0
	for v := 0; v < g.N(); v++ {
		d := len(g.Neighbors(v))
		triples += d * (d - 1) / 2
	}
	if triples == 0 {
		return 0
	}
	return 3 * float64(g.Triangles()) / float64(triples)
}
