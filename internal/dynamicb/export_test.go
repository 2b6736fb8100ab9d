package dynamicb

import (
	"clustercast/internal/broadcast"
	"clustercast/internal/graph"
)

// HeadPacketForTest exposes the clusterhead selection step for white-box
// tests of the pruning rules.
func (p *Protocol) HeadPacketForTest(v int, in broadcast.Packet, x int) (forward map[int]bool, piggyCov map[int]bool) {
	pkt, _ := in.(*packet)
	out := p.headPacket(v, pkt, x)
	return graph.SetOf(out.forward.Members()...), graph.SetOf(out.cov.Members()...)
}

// PacketForTest builds an incoming packet for white-box tests. Sets are
// membership maps over the protocol's node universe.
func (p *Protocol) PacketForTest(fromCH int, cov map[int]bool, forward map[int]bool) broadcast.Packet {
	n := p.g.N()
	pk := &packet{fromCH: fromCH}
	if cov != nil {
		pk.cov = graph.NewSparseSet(n)
		for v, ok := range cov {
			if ok {
				pk.cov.Add(v)
			}
		}
	}
	if forward != nil {
		pk.forward = graph.NewSparseSet(n)
		for v, ok := range forward {
			if ok {
				pk.forward.Add(v)
			}
		}
	}
	return pk
}
