package broadcast

import (
	"clustercast/internal/faults"
	"clustercast/internal/graph"
	"clustercast/internal/obs"
)

// TimedProtocol is the interface for protocols that defer their forwarding
// decision — the paper's first pruning technique (§3): "if it can back-off
// a short period of time before it relays the packet, it may receive more
// copies of the same packet ... if all of its neighbors can be covered by
// these already received broadcast copies, it can resign its role".
//
// When a node first receives the packet, Delay returns how many time units
// it waits. During the wait the engine keeps delivering duplicate copies;
// when the timer fires, Decide sees every transmitter heard so far and
// rules on forwarding.
type TimedProtocol interface {
	// Name identifies the protocol in experiment output.
	Name() string
	// Delay returns the back-off (in whole time units, ≥ 0) node v applies
	// before deciding. Deterministic protocols derive it from v.
	Delay(v int) int
	// Decide is called when v's back-off expires; heard lists every
	// neighbor whose transmission v received so far (in receive order).
	// Returning true makes v transmit.
	Decide(v int, heard []int) bool
}

// TimedOptions tunes a back-off broadcast run. The zero value is the
// untraced default.
type TimedOptions struct {
	// Tracer, when non-nil, records the run's typed event stream.
	Tracer *obs.Tracer
	// Faults, when non-nil, injects the fault schedule: a node that is down
	// when its transmission or back-off decision is due stays silent (a
	// crashed node misses its decision window for good), and copies are
	// dropped per the oracle's link and receiver state.
	Faults faults.Model
}

// RunTimed simulates one broadcast under a back-off protocol. Transmission
// takes one time unit; the source transmits at time 0 unconditionally.
func RunTimed(g *graph.Graph, source int, p TimedProtocol) *Result {
	return RunTimedOpts(g, source, p, TimedOptions{})
}

// RunTimedOpts is RunTimed with explicit options. It runs
// TimedWorkspace.Run on a private workspace.
func RunTimedOpts(g *graph.Graph, source int, p TimedProtocol, opt TimedOptions) *Result {
	var tw TimedWorkspace
	return tw.Run(g, source, p, opt)
}

// SBA is neighbor-coverage self-pruning with back-off (in the spirit of
// Peng & Lu's scalable broadcast algorithm, and exactly the paper's §3
// back-off discussion): after a deterministic pseudo-random delay, a node
// forwards only when the transmissions it has overheard do not already
// cover its whole neighborhood.
type SBA struct {
	nb *Neighborhood
	// MaxDelay bounds the back-off window (time units). Larger windows
	// prune more (more copies overheard) at the price of latency.
	MaxDelay int
	// Seed drives the per-node delay draw.
	Seed uint64
}

// NewSBA builds the protocol over a neighborhood cache.
func NewSBA(nb *Neighborhood, maxDelay int, seed uint64) *SBA {
	return &SBA{nb: nb, MaxDelay: maxDelay, Seed: seed}
}

// Name implements TimedProtocol.
func (s *SBA) Name() string { return "sba" }

// Delay implements TimedProtocol: a deterministic per-node draw from
// [0, MaxDelay].
func (s *SBA) Delay(v int) int {
	return backoffDelay(s.Seed, v, s.MaxDelay)
}

// Decide implements TimedProtocol: forward iff some neighbor is not
// covered by the senders heard so far (a neighbor x is covered when it is
// a heard sender itself or adjacent to one).
func (s *SBA) Decide(v int, heard []int) bool {
	covered := make(map[int]bool, 8)
	for _, x := range heard {
		covered[x] = true
		for w := range s.nb.N1(x) {
			covered[w] = true
		}
	}
	for _, w := range s.nb.Graph().Neighbors(v) {
		if !covered[w] {
			return true
		}
	}
	return false
}
