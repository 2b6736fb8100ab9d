package dynamicb

import (
	"clustercast/internal/broadcast"
	"clustercast/internal/graph"
)

// HeadPacketForTest exposes the clusterhead selection step for white-box
// tests of the pruning rules: it returns the forward set and the
// piggybacked coverage set, each ascending.
func (p *Protocol) HeadPacketForTest(v int, in broadcast.Packet, x int) (forward, piggyCov []int) {
	pkt, _ := in.(*packet)
	out := p.headPacket(v, pkt, x)
	return out.forward.Members(), out.cov.Members()
}

// PacketForTest builds an incoming packet for white-box tests from
// ascending node lists over the protocol's node universe; a nil list
// leaves that set absent.
func (p *Protocol) PacketForTest(fromCH int, cov, forward []int) broadcast.Packet {
	n := p.g.N()
	pk := &packet{fromCH: fromCH}
	if cov != nil {
		pk.cov = graph.NewSparseSet(n)
		for _, v := range cov {
			pk.cov.Add(v)
		}
	}
	if forward != nil {
		pk.forward = graph.NewSparseSet(n)
		for _, v := range forward {
			pk.forward.Add(v)
		}
	}
	return pk
}
