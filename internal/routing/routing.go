// Package routing implements on-demand route discovery over a broadcast
// service — the application that motivates efficient broadcasting in the
// paper's introduction (and the cluster-based routing protocol line of
// work it cites): a route request (RREQ) is flooded from the source; every
// node remembers the neighbor that delivered its first copy; when the
// request reaches the destination, the reverse chain of those parent
// pointers is the discovered route, returned by a unicast route reply.
//
// The broadcast protocol used for the RREQ flood determines the trade-off:
// blind flooding costs n transmissions and finds shortest (BFS) routes;
// broadcasting over a CDS backbone costs a fraction of the transmissions
// but may return slightly longer routes (the route is confined to
// backbone-covered parent chains). Stretch quantifies that penalty.
package routing

import (
	"fmt"

	"clustercast/internal/broadcast"
	"clustercast/internal/faults"
	"clustercast/internal/graph"
)

// Route is a discovered source→destination path.
type Route struct {
	// Hops is the node sequence from source to destination inclusive.
	Hops []int
	// RequestCost is the number of RREQ transmissions the discovery flood
	// used (the broadcast's forward-node count).
	RequestCost int
	// ReplyCost is the number of RREP unicast transmissions (route length).
	ReplyCost int
}

// Len returns the hop length of the route (edges, not nodes). It is
// total: a nil, empty, or single-node route has zero hops (the old
// `len(Hops) - 1` returned -1 on an empty route, and callers averaging
// discovery latency over failed routes inherited the off-by-one).
func (r *Route) Len() int {
	if r == nil || len(r.Hops) < 2 {
		return 0
	}
	return len(r.Hops) - 1
}

// ErrUnreachable is returned when the RREQ flood does not reach the
// destination.
var ErrUnreachable = fmt.Errorf("routing: destination unreachable by the discovery flood")

// Options selects the radio/MAC model the RREQ flood runs under.
// The zero value is the ideal radio of Discover.
type Options struct {
	// Loss is the per-copy i.i.d. loss probability of the ideal-radio
	// flood (broadcast.Options.Loss). Ignored when MAC is set.
	Loss float64
	// Seed drives the loss (ideal radio) or jitter (MAC) draws.
	Seed uint64
	// MAC runs the RREQ flood under the slotted collision model
	// (broadcast.RunMAC) instead of the ideal radio: overlapping relays
	// collide, and the discovered route follows first *decoded* copies.
	MAC bool
	// Jitter is the MAC contention window (MACOptions.Jitter).
	Jitter int
}

// Discover floods a route request from src under the given broadcast
// protocol on an ideal radio and extracts the route to dst from the
// delivery tree. It is DiscoverOpts with the zero Options and no faults.
func Discover(g *graph.Graph, src, dst int, p broadcast.Protocol) (*Route, error) {
	return DiscoverOpts(g, src, dst, p, Options{}, nil)
}

// DiscoverOpts floods a route request from src under the selected radio
// model — ideal, lossy, slotted-MAC, with or without a fault schedule —
// and extracts the route to dst from the delivery tree. Discover's
// ideal-only dispatch was the bug: under loss, faults, or MAC collisions
// the real flood delivers along different parents (or not at all), so
// routes and RequestCost reported by an ideal re-run were fiction.
//
// Every engine commits a delivery only after the fault checks pass
// (receiver up, link up, copy kept), so the returned parent chain never
// traverses a node the oracle had down at its delivery time; the
// partition regression test in routing_test.go pins that property.
func DiscoverOpts(g *graph.Graph, src, dst int, p broadcast.Protocol, opt Options, fo faults.Model) (*Route, error) {
	if src == dst {
		return &Route{Hops: []int{src}, RequestCost: 0, ReplyCost: 0}, nil
	}
	var res *broadcast.Result
	var cost int
	if opt.MAC {
		mo := broadcast.MACOptions{Jitter: opt.Jitter, Seed: opt.Seed, Faults: fo}
		cr := broadcast.RunMAC(g, src, p, mo)
		res, cost = &cr.Result, cr.ForwardCount()
	} else {
		bo := broadcast.Options{Loss: opt.Loss, Seed: opt.Seed, Faults: fo}
		res = broadcast.RunOpts(g, src, p, bo)
		cost = res.ForwardCount()
	}
	return ExtractRoute(g, src, dst, res, cost)
}

// ExtractRoute walks the delivery tree of a completed discovery flood
// from dst back to src and returns the route, with RequestCost set to
// cost (the flood's transmission count). Shared by Discover/DiscoverOpts
// and the workload discovery runner, so route semantics cannot drift
// between the single-shot and streaming paths.
func ExtractRoute(g *graph.Graph, src, dst int, res *broadcast.Result, cost int) (*Route, error) {
	if src == dst {
		return &Route{Hops: []int{src}, RequestCost: cost, ReplyCost: 0}, nil
	}
	if !res.Received[dst] {
		return nil, ErrUnreachable
	}
	var rev []int
	for x := dst; ; {
		rev = append(rev, x)
		if x == src {
			break
		}
		parent, ok := res.Parent[x]
		if !ok {
			return nil, fmt.Errorf("routing: broken parent chain at node %d", x)
		}
		x = parent
		if len(rev) > g.N() {
			return nil, fmt.Errorf("routing: parent cycle while extracting route")
		}
	}
	hops := make([]int, len(rev))
	for i, v := range rev {
		hops[len(rev)-1-i] = v
	}
	return &Route{
		Hops:        hops,
		RequestCost: cost,
		ReplyCost:   len(hops) - 1,
	}, nil
}

// Validate checks that the route is a real path in g from src to dst.
// It is total over degenerate routes: a nil or empty route is an error,
// and a src==dst pair is valid exactly as the single-node route [src].
// The explicit branch makes the single-node contract part of the API —
// previously it rode on the fall-through of the path checks, which say
// nothing useful when a src==dst route has the wrong shape.
func (r *Route) Validate(g *graph.Graph, src, dst int) error {
	if r == nil || len(r.Hops) == 0 {
		return fmt.Errorf("routing: empty route")
	}
	if src == dst {
		if len(r.Hops) != 1 || r.Hops[0] != src {
			return fmt.Errorf("routing: src==dst route must be the single node %d, got %v", src, r.Hops)
		}
		return nil
	}
	if r.Hops[0] != src || r.Hops[len(r.Hops)-1] != dst {
		return fmt.Errorf("routing: endpoints %d→%d, want %d→%d",
			r.Hops[0], r.Hops[len(r.Hops)-1], src, dst)
	}
	seen := make(map[int]bool, len(r.Hops))
	for i, v := range r.Hops {
		if seen[v] {
			return fmt.Errorf("routing: node %d repeats", v)
		}
		seen[v] = true
		if i > 0 && !g.HasEdge(r.Hops[i-1], v) {
			return fmt.Errorf("routing: %d-%d is not an edge", r.Hops[i-1], v)
		}
	}
	return nil
}

// Stretch returns the ratio of the route's length to the shortest-path
// distance in g (1.0 = optimal). It returns 0 when the pair is adjacent to
// identical (degenerate single-node routes).
func (r *Route) Stretch(g *graph.Graph) float64 {
	if len(r.Hops) < 2 {
		return 0
	}
	dist := g.BFS(r.Hops[0])
	d := dist[r.Hops[len(r.Hops)-1]]
	if d <= 0 {
		return 0
	}
	return float64(r.Len()) / float64(d)
}
