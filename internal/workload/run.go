package workload

import (
	"clustercast/internal/broadcast"
	"clustercast/internal/graph"
	"clustercast/internal/obs"
	"clustercast/internal/routing"
)

// Workload telemetry: whole-run totals folded per RunTraffic /
// RunDiscovery, plus a flow-completion progress meter (rate + ETA in the
// heartbeat stream, like sweep.points).
var (
	mFlows      = obs.NewCounter("workload.flows")
	mDeliveries = obs.NewCounter("workload.deliveries")
	mCollided   = obs.NewCounter("workload.cross_collisions")
	mRequests   = obs.NewCounter("workload.discovery_requests")
	mFound      = obs.NewCounter("workload.discovery_found")
	mFailed     = obs.NewCounter("workload.discovery_failed")
	progFlows   = obs.NewProgress("workload.flows")
)

// Engine runs one multi-source MAC scenario — broadcast.RunMACMulti, or
// a reused workspace's (*broadcast.MultiMACWorkspace).Run.
type Engine func(g *graph.Graph, flows []broadcast.MultiFlow, opt broadcast.MACOptions) *broadcast.MultiResult

// ProtoFactory returns the protocol instance flow i broadcasts with.
// Stateless protocols may return a shared instance; per-broadcast-state
// protocols must return a private one per flow (see broadcast.MultiFlow).
type ProtoFactory func(i int) broadcast.Protocol

// TrafficResult aggregates one traffic workload run.
type TrafficResult struct {
	// Flows is the number of flows offered.
	Flows int
	// DeliveryRatio is the mean per-flow delivery ratio over n nodes.
	DeliveryRatio float64
	// Throughput is end-to-end delivery throughput: total deliveries
	// (sources excluded) per slot of the run's makespan.
	Throughput float64
	// MeanLatency is the mean per-flow latency (slots from a flow's start
	// to its last delivery), over flows that delivered anything.
	MeanLatency float64
	// Collisions / CrossCollisions / Transmissions / Makespan echo the
	// medium-level accounting of the MultiResult.
	Collisions      int
	CrossCollisions int
	Transmissions   int
	Makespan        int
}

// MultiFlows converts generated flows to engine inputs with protocols
// attached.
func MultiFlows(flows []Flow, proto ProtoFactory) []broadcast.MultiFlow {
	out := make([]broadcast.MultiFlow, len(flows))
	for i, f := range flows {
		out[i] = broadcast.MultiFlow{
			Src:   f.Src,
			Dst:   f.Dst,
			Start: f.Start,
			Seed:  f.Seed,
			Proto: proto(i),
		}
	}
	return out
}

// RunTraffic drives one traffic workload through the multi-source MAC
// engine and aggregates the end-to-end load metrics.
func RunTraffic(g *graph.Graph, flows []Flow, proto ProtoFactory, opt broadcast.MACOptions, engine Engine) *TrafficResult {
	if engine == nil {
		engine = broadcast.RunMACMulti
	}
	mf := MultiFlows(flows, proto)
	progFlows.AddTotal(int64(len(mf)))
	res := engine(g, mf, opt)

	out := &TrafficResult{
		Flows:           len(res.Flows),
		Collisions:      res.SharedCollisions,
		CrossCollisions: res.CrossCollisions,
		Transmissions:   res.Transmissions,
		Makespan:        res.Makespan,
	}
	n := g.N()
	deliveries, latSum, latFlows := 0, 0, 0
	for _, fr := range res.Flows {
		out.DeliveryRatio += fr.DeliveryRatio(n)
		deliveries += len(fr.Received) - 1
		if fr.Latency > 0 {
			latSum += fr.Latency
			latFlows++
		}
		progFlows.Step()
	}
	if len(res.Flows) > 0 {
		out.DeliveryRatio /= float64(len(res.Flows))
	}
	if latFlows > 0 {
		out.MeanLatency = float64(latSum) / float64(latFlows)
	}
	// A run whose flows all start at slot 0 and never forward has zero
	// makespan; guard the division.
	if res.Makespan > 0 {
		out.Throughput = float64(deliveries) / float64(res.Makespan)
	}
	mFlows.Add(int64(len(res.Flows)))
	mDeliveries.Add(int64(deliveries))
	mCollided.Add(int64(res.CrossCollisions))
	return out
}

// DiscoveryResult aggregates one route-discovery workload run.
type DiscoveryResult struct {
	// Requests and Found count the offered RREQ floods and the ones whose
	// destination decoded the request.
	Requests int
	Found    int
	// SuccessRatio is Found / Requests.
	SuccessRatio float64
	// MeanLatency is the mean end-to-end discovery latency over found
	// routes: slots from the flow's start until the destination decoded
	// the RREQ, plus one slot per hop for the RREP unicast back over the
	// discovered parent chain.
	MeanLatency float64
	// MeanRouteLen and MeanStretch characterize the found routes.
	MeanRouteLen float64
	MeanStretch  float64
	// RequestCost is the total RREQ transmissions across all floods;
	// ReplyCost the total RREP unicasts.
	RequestCost int
	ReplyCost   int
}

// RunDiscovery drives one route-discovery workload: every flow is an
// RREQ flood from Src toward Dst through the shared MAC, and each found
// route is the delivery-tree parent chain at the destination (the RREP
// unicasts back over it, one slot per hop). Routes are extracted with
// the same routing.ExtractRoute that Discover/DiscoverOpts use.
func RunDiscovery(g *graph.Graph, flows []Flow, proto ProtoFactory, opt broadcast.MACOptions, engine Engine) *DiscoveryResult {
	if engine == nil {
		engine = broadcast.RunMACMulti
	}
	mf := MultiFlows(flows, proto)
	progFlows.AddTotal(int64(len(mf)))
	res := engine(g, mf, opt)

	out := &DiscoveryResult{Requests: len(res.Flows)}
	latSum := 0.0
	for i, fr := range res.Flows {
		progFlows.Step()
		f := &flows[i]
		out.RequestCost += fr.ForwardCount()
		if f.Dst < 0 || fr.DstSlot < 0 {
			continue
		}
		route, err := routing.ExtractRoute(g, f.Src, f.Dst, &fr.Result, fr.ForwardCount())
		if err != nil {
			continue
		}
		out.Found++
		out.ReplyCost += route.ReplyCost
		out.MeanRouteLen += float64(route.Len())
		out.MeanStretch += route.Stretch(g)
		// RREQ latency is the slot the destination decoded in, relative to
		// the flow's start; the RREP pays one slot per hop back.
		latSum += float64(fr.DstSlot-f.Start) + float64(route.ReplyCost)
	}
	if out.Found > 0 {
		out.MeanLatency = latSum / float64(out.Found)
		out.MeanRouteLen /= float64(out.Found)
		out.MeanStretch /= float64(out.Found)
	}
	if out.Requests > 0 {
		out.SuccessRatio = float64(out.Found) / float64(out.Requests)
	}
	mRequests.Add(int64(out.Requests))
	mFound.Add(int64(out.Found))
	mFailed.Add(int64(out.Requests - out.Found))
	return out
}
