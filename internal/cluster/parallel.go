package cluster

import (
	"cmp"
	"slices"

	"clustercast/internal/des"
	"clustercast/internal/graph"
)

// ParallelWorkspace runs the round-synchronous clusterhead election as a
// worklist driven by "better-neighbor" counters, sequentially or sharded
// over des.Shards cross-shard mailboxes. It produces the exact
// Clustering of Workspace.Elect — Head, Heads, Members, Rounds and When
// — for any worker count, with Workspace.Elect kept as the golden
// reference.
//
// The worklist is the generalization of the wire-protocol election
// (sim.Run) from lowest-ID to an arbitrary Priority: cnt[v] holds the
// number of still-candidate neighbors with strictly better priority, so
// v is ready to declare exactly when cnt[v] reaches zero — the same
// condition as "beats every candidate neighbor" in the per-round scans
// of Workspace.Elect, but discovered incrementally instead of by
// re-scanning the frontier each round. The counters stay exact because a
// candidate is never adjacent to a head at a round boundary (it would
// have joined in that round's phase 2), so candidacy only ever ends in
// ways the worklist observes: a declaration the node itself makes, an
// offer it receives, or a membership strike from a better neighbor.
// Election state is folded into the counter (cntHead/cntMember below) so
// the hot strike loop touches one array instead of two.
//
// Each round is two exchanges. Declare+offer: ready nodes become heads
// and offer membership to each neighbor; offers are folded with the
// (rank, tie, ID) order Workspace.Elect's ascending phase-2 scan
// implies, and offered candidates join. Strike: every new member
// decrements the counter of each worse still-candidate neighbor;
// counters that reach zero enqueue the node as ready. In the sharded
// path each exchange is a des.Shards.Fanout — single-writer mailboxes
// concatenated in ascending source-shard order — and every fold is
// order-independent, so the decisions are bit-identical for any worker
// count; the single-worker path folds directly with the mailboxes
// elided.
type ParallelWorkspace struct {
	sh        des.Shards
	headOf    []int
	when      []int
	rank      []int
	tie       []int
	cnt       []int32
	offerAt   []uint32 // round stamp of the newest offer to v
	bestOffer []int32  // best offering head this round (valid when stamped)
	stamp     uint32   // persistent round stamp; never reset between elections
	shards    []electShard

	counts  []int
	backing []int
	pos     []int
	heads   []int
	members map[int][]int
	c       Clustering
}

// cnt[v] ≥ 0 means v is a candidate with that many better candidate
// neighbors; the two negative sentinels mark decided nodes.
const (
	cntHead   = int32(-1)
	cntMember = int32(-2)
)

// electShard is the per-shard private state: only the owning shard
// appends to these lists, during the phase noted per field.
type electShard struct {
	ready      []int32 // candidates with count 0, pending declaration
	newHeads   []int32 // heads declared this round (declare produce)
	newMembers []int32 // members joined this round (offer consume)
	offered    []int32 // nodes stamped with an offer this round (offer consume)
}

// NewParallelWorkspace returns an empty workspace; buffers grow on first
// use. The Clustering returned by Elect/LowestID is owned by the
// workspace and valid only until the next election on it.
func NewParallelWorkspace() *ParallelWorkspace {
	return &ParallelWorkspace{members: make(map[int][]int, 16)}
}

// ensure sizes the per-node buffers for n nodes.
func (pw *ParallelWorkspace) ensure(n int) {
	if cap(pw.headOf) < n {
		pw.headOf = make([]int, n)
		pw.when = make([]int, n)
		pw.rank = make([]int, n)
		pw.tie = make([]int, n)
		pw.cnt = make([]int32, n)
		pw.offerAt = make([]uint32, n)
		pw.bestOffer = make([]int32, n)
		pw.counts = make([]int, n)
		pw.backing = make([]int, n)
		pw.pos = make([]int, n)
	}
	pw.headOf = pw.headOf[:n]
	pw.when = pw.when[:n]
	pw.rank = pw.rank[:n]
	pw.tie = pw.tie[:n]
	pw.cnt = pw.cnt[:n]
	pw.offerAt = pw.offerAt[:n]
	pw.bestOffer = pw.bestOffer[:n]
	pw.counts = pw.counts[:n]
	pw.backing = pw.backing[:n]
	pw.pos = pw.pos[:n]
}

// LowestID runs the paper's lowest-ID election across workers goroutines
// (sequentially when workers ≤ 1).
func (pw *ParallelWorkspace) LowestID(g *graph.Graph, workers int) *Clustering {
	return pw.elect(g, LowestIDPriority, workers, true)
}

// Elect runs the generic round-synchronous election under prio across
// workers goroutines, bit-identical to Workspace.Elect.
func (pw *ParallelWorkspace) Elect(g *graph.Graph, prio Priority, workers int) *Clustering {
	return pw.elect(g, prio, workers, false)
}

func (pw *ParallelWorkspace) elect(g *graph.Graph, prio Priority, workers int, idPrio bool) *Clustering {
	n := g.N()
	if workers < 1 {
		workers = 1
	}
	pw.ensure(n)
	var rounds int
	if workers == 1 {
		rounds = pw.electSeq(g, prio, idPrio)
	} else {
		rounds = pw.electSharded(g, prio, workers, idPrio)
	}
	pw.assemble(n, rounds)
	return &pw.c
}

// nextStamp advances the persistent offer stamp, flushing stale stamps
// on uint32 wrap (once per 2³² rounds).
func (pw *ParallelWorkspace) nextStamp() uint32 {
	pw.stamp++
	if pw.stamp == 0 {
		for i := range pw.offerAt {
			pw.offerAt[i] = 0
		}
		pw.stamp = 1
	}
	return pw.stamp
}

// electSeq is the single-worker worklist: the same counter algorithm as
// the sharded path with the mailbox exchange elided — offers and strikes
// are folded directly, which is legal because every fold (best offer by
// (rank, tie, ID), counter decrements) is order-independent, so eliding
// the deterministic mail ordering cannot change a decision.
func (pw *ParallelWorkspace) electSeq(g *graph.Graph, prio Priority, idPrio bool) int {
	n := g.N()
	if cap(pw.shards) < 1 {
		pw.shards = make([]electShard, 1)
	}
	sd := &pw.shards[0]
	ready := sd.ready[:0]
	newHeads := sd.newHeads[:0]
	newMembers := sd.newMembers[:0]

	headOf, when := pw.headOf, pw.when
	rank, tie, cnt := pw.rank, pw.tie, pw.cnt
	better := func(a, b int) bool {
		if rank[a] != rank[b] {
			return rank[a] < rank[b]
		}
		return tie[a] < tie[b]
	}

	// Count the better candidate neighbors of every node; count-0 nodes
	// seed the ready list. For the lowest-ID priority the count is the
	// length of the smaller-ID prefix of the ascending adjacency segment
	// and the rank/tie arrays are never consulted.
	if idPrio {
		for v := 0; v < n; v++ {
			headOf[v] = -1
			c := int32(0)
			for _, u := range g.Neighbors(v) {
				if u >= v {
					break
				}
				c++
			}
			cnt[v] = c
			if c == 0 {
				ready = append(ready, int32(v))
			}
		}
	} else {
		for v := 0; v < n; v++ {
			rank[v], tie[v] = prio(v)
			headOf[v] = -1
		}
		for v := 0; v < n; v++ {
			c := int32(0)
			for _, u := range g.Neighbors(v) {
				if better(u, v) {
					c++
				}
			}
			cnt[v] = c
			if c == 0 {
				ready = append(ready, int32(v))
			}
		}
	}

	remaining := n
	rounds := 0
	for remaining > 0 {
		rounds++

		// Declaring the round's heads in priority order makes the first
		// offer any candidate hears its best one — Workspace.Elect's
		// (rank, tie, ID) phase-2 fold — so joins happen inline on first
		// contact, with no offer-stamp pass. The sort is cheap: the total
		// number of ready entries over a whole election is the number of
		// heads.
		if idPrio {
			slices.Sort(ready)
		} else {
			slices.SortFunc(ready, func(a, b int32) int {
				x, y := int(a), int(b)
				if rank[x] != rank[y] {
					return cmp.Compare(rank[x], rank[y])
				}
				if tie[x] != tie[y] {
					return cmp.Compare(tie[x], tie[y])
				}
				return cmp.Compare(a, b)
			})
		}
		newHeads = newHeads[:0]
		for _, v32 := range ready {
			v := int(v32)
			if cnt[v] != 0 {
				continue // defensive: ready nodes are candidates by construction
			}
			cnt[v] = cntHead
			headOf[v] = v
			when[v] = rounds
			newHeads = append(newHeads, v32)
		}
		ready = ready[:0]

		newMembers = newMembers[:0]
		for _, h32 := range newHeads {
			h := int(h32)
			for _, v := range g.Neighbors(h) {
				if cnt[v] < 0 {
					continue // joined this round, or decided earlier
				}
				cnt[v] = cntMember
				headOf[v] = h
				when[v] = rounds
				newMembers = append(newMembers, int32(v))
			}
		}

		progress := len(newHeads) + len(newMembers)
		if progress == 0 {
			// Cannot happen on a simple graph with a strict total order,
			// but guard against priority functions that are not total.
			panic("cluster: election stalled; priority function is not a total order")
		}
		remaining -= progress
		if remaining == 0 {
			break
		}

		// Strikes. A counter is decremented exactly once per better
		// neighbor that joins, so a candidate's counter cannot be 0 here
		// (the striking member was still counted), and decided nodes sit
		// at the negative sentinels — the c ≥ 0 guard filters both.
		for _, m32 := range newMembers {
			m := int(m32)
			if idPrio {
				// Worse neighbors are the larger-ID suffix of the ascending
				// adjacency segment: walk it from the end and stop at the
				// first smaller ID instead of scanning the whole segment.
				nb := g.Neighbors(m)
				for i := len(nb) - 1; i >= 0; i-- {
					u := nb[i]
					if u < m {
						break
					}
					if c := cnt[u] - 1; c >= 0 {
						cnt[u] = c
						if c == 0 {
							ready = append(ready, int32(u))
						}
					}
				}
			} else {
				for _, u := range g.Neighbors(m) {
					if !better(m, u) {
						continue
					}
					if c := cnt[u] - 1; c >= 0 {
						cnt[u] = c
						if c == 0 {
							ready = append(ready, int32(u))
						}
					}
				}
			}
		}
	}

	sd.ready = ready[:0]
	sd.newHeads = newHeads
	sd.newMembers = newMembers
	return rounds
}

// electSharded is the worklist sharded over des.Shards: two Fanout
// exchanges per round with the ID space split into contiguous strips,
// each strip the single writer of its nodes' counters and decisions.
func (pw *ParallelWorkspace) electSharded(g *graph.Graph, prio Priority, workers int, idPrio bool) int {
	n := g.N()
	pw.sh.ResetRange(n, workers)
	k := pw.sh.K()
	if cap(pw.shards) < k {
		pw.shards = make([]electShard, k)
	}
	shards := pw.shards[:k]
	for s := range shards {
		shards[s].ready = shards[s].ready[:0]
		shards[s].newHeads = shards[s].newHeads[:0]
		shards[s].newMembers = shards[s].newMembers[:0]
		shards[s].offered = shards[s].offered[:0]
	}

	headOf, when := pw.headOf, pw.when
	rank, tie, cnt := pw.rank, pw.tie, pw.cnt
	offerAt, bestOffer := pw.offerAt, pw.bestOffer
	better := func(a, b int) bool {
		if rank[a] != rank[b] {
			return rank[a] < rank[b]
		}
		return tie[a] < tie[b]
	}

	// Pass 1: evaluate the priority and reset per-node state, per strip.
	pw.sh.Each(workers, func(s int) {
		lo, hi := pw.sh.Range(s)
		for v := lo; v < hi; v++ {
			if !idPrio {
				rank[v], tie[v] = prio(v)
			}
			headOf[v] = -1
		}
	})
	// Pass 2 (after the barrier — counts read neighbor priorities across
	// strip boundaries): count better candidate neighbors; count-0 nodes
	// seed the ready lists.
	pw.sh.Each(workers, func(s int) {
		sd := &shards[s]
		lo, hi := pw.sh.Range(s)
		for v := lo; v < hi; v++ {
			c := int32(0)
			if idPrio {
				for _, u := range g.Neighbors(v) {
					if u >= v {
						break
					}
					c++
				}
			} else {
				for _, u := range g.Neighbors(v) {
					if better(u, v) {
						c++
					}
				}
			}
			cnt[v] = c
			if c == 0 {
				sd.ready = append(sd.ready, int32(v))
			}
		}
	})

	remaining := n
	rounds := 0
	for remaining > 0 {
		rounds++
		stamp := pw.nextStamp()

		// Declare + offer. Ready nodes are heads by construction (a node
		// whose count reached zero is never offered membership before its
		// declaration round — its better neighbors are all gone), so the
		// candidate check is defensive only.
		pw.sh.Fanout(workers,
			func(src int, emit func(int, des.Mail)) {
				sd := &shards[src]
				sd.newHeads = sd.newHeads[:0]
				for _, v32 := range sd.ready {
					v := int(v32)
					if cnt[v] != 0 {
						continue
					}
					cnt[v] = cntHead
					headOf[v] = v
					when[v] = rounds
					sd.newHeads = append(sd.newHeads, v32)
					for _, u := range g.Neighbors(v) {
						emit(pw.sh.Owner(u), des.Mail{Node: int32(u), Val: v32})
					}
				}
				sd.ready = sd.ready[:0]
			},
			func(dst int, mail []des.Mail) {
				sd := &shards[dst]
				sd.newMembers = sd.newMembers[:0]
				for _, m := range mail {
					v := int(m.Node)
					if cnt[v] < 0 {
						continue // joined or declared in an earlier round
					}
					if offerAt[v] != stamp {
						offerAt[v] = stamp
						bestOffer[v] = m.Val
						sd.offered = append(sd.offered, m.Node)
						continue
					}
					h, b := int(m.Val), int(bestOffer[v])
					if idPrio {
						if h < b {
							bestOffer[v] = m.Val
						}
					} else if better(h, b) || (h < b && !better(b, h)) {
						bestOffer[v] = m.Val
					}
				}
				for _, v32 := range sd.offered {
					v := int(v32)
					cnt[v] = cntMember
					headOf[v] = int(bestOffer[v])
					when[v] = rounds
					sd.newMembers = append(sd.newMembers, v32)
				}
				sd.offered = sd.offered[:0]
			})

		progress := 0
		for s := range shards {
			progress += len(shards[s].newHeads) + len(shards[s].newMembers)
		}
		if progress == 0 {
			panic("cluster: election stalled; priority function is not a total order")
		}
		remaining -= progress
		if remaining == 0 {
			break
		}

		// Strike. Counter reads in produce are stable (no writes happen
		// during a produce phase); the owner shard folds the decrements.
		pw.sh.Fanout(workers,
			func(src int, emit func(int, des.Mail)) {
				sd := &shards[src]
				for _, m32 := range sd.newMembers {
					m := int(m32)
					if idPrio {
						for _, u := range g.Neighbors(m) {
							if u > m && cnt[u] >= 0 {
								emit(pw.sh.Owner(u), des.Mail{Node: int32(u), Val: m32})
							}
						}
					} else {
						for _, u := range g.Neighbors(m) {
							if cnt[u] >= 0 && better(m, u) {
								emit(pw.sh.Owner(u), des.Mail{Node: int32(u), Val: m32})
							}
						}
					}
				}
			},
			func(dst int, mail []des.Mail) {
				sd := &shards[dst]
				for _, ms := range mail {
					u := ms.Node
					if c := cnt[u] - 1; c >= 0 {
						cnt[u] = c
						if c == 0 {
							sd.ready = append(sd.ready, u)
						}
					}
				}
			})
	}
	return rounds
}

// assemble builds the membership lists count-then-fill into one backing
// array, exactly like Workspace.Elect, and publishes the Clustering.
func (pw *ParallelWorkspace) assemble(n, rounds int) {
	headOf, when := pw.headOf, pw.when
	counts := pw.counts
	for i := range counts {
		counts[i] = 0
	}
	for _, h := range headOf {
		counts[h]++
	}
	backing, pos := pw.backing, pw.pos
	s := 0
	for h := 0; h < n; h++ {
		if counts[h] > 0 {
			pos[h] = s
			s += counts[h]
		}
	}
	for v := 0; v < n; v++ {
		h := headOf[v]
		backing[pos[h]] = v
		pos[h]++
	}
	clear(pw.members)
	pw.heads = pw.heads[:0]
	s = 0
	for h := 0; h < n; h++ {
		if counts[h] == 0 {
			continue
		}
		pw.members[h] = backing[s : s+counts[h] : s+counts[h]]
		s += counts[h]
		pw.heads = append(pw.heads, h)
	}
	pw.c = Clustering{Head: headOf, Heads: pw.heads, Members: pw.members, Rounds: rounds, When: when}
}
