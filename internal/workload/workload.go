// Package workload generates deterministic traffic for the multi-source
// broadcast engines: streams of flows (broadcasts, or RREQ floods with a
// destination) whose sources, destinations, arrival slots, and per-flow
// randomness are all pure functions of a Spec and its seed. This is the
// "heavy traffic" axis of the roadmap — the paper argues the cluster
// backbone pays off under load, and load is exactly what the single-shot
// figures never produced.
//
// Determinism discipline: each flow's seed is a counter-based key
// (rng.CoinWord of the flow index), not a draw from a shared stream, so a
// flow's randomness is independent of how many flows precede it and of
// which engine and worker count replays it.
package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"clustercast/internal/rng"
)

// Process selects the arrival process of a Spec.
type Process int

const (
	// Poisson arrivals: independent exponential gaps with mean 1/Rate
	// slots (the classic open-loop traffic model).
	Poisson Process = iota
	// Bursty arrivals: Burst flows injected together every Every slots —
	// the worst case for slot contention.
	Bursty
)

func (p Process) String() string {
	if p == Bursty {
		return "bursty"
	}
	return "poisson"
}

// flowSeedDomain names the per-flow seed space among the rng.CoinWord
// identities, so another counter-based key can take a domain of its own.
const flowSeedDomain = 0x770A_D00D

// Spec declares a traffic workload. The zero value is invalid (no
// flows); DefaultSpec gives a small sane load.
type Spec struct {
	// Process selects Poisson or Bursty arrivals.
	Process Process
	// Rate is the offered load of the Poisson process in flow arrival
	// events per slot (each event injects FanOut flows).
	Rate float64
	// Burst and Every parameterize the bursty process: Burst arrival
	// events every Every slots.
	Burst int
	Every int
	// Flows is the total number of flows to generate.
	Flows int
	// FanOut is the number of flows injected per arrival event (>= 1;
	// 0 means 1). Sources within one event are drawn independently, so
	// FanOut > 1 models simultaneous uncorrelated broadcasts.
	FanOut int
	// Discovery marks the flows as route discoveries: each flow draws a
	// destination distinct from its source, and the runners report
	// discovery latency and success instead of raw broadcast metrics.
	Discovery bool
	// Seed drives every draw the generator makes.
	Seed uint64
}

// DefaultSpec is a modest Poisson load: 32 flows at 0.1 arrivals/slot.
func DefaultSpec(seed uint64) Spec {
	return Spec{Process: Poisson, Rate: 0.1, Flows: 32, FanOut: 1, Seed: seed}
}

// MaxStart is the largest arrival slot Generate emits. It keeps every
// slot the MAC engines derive from an arrival (the start plus at most
// n·(Jitter+1) relay slots) far from overflowing int; a spec whose
// arrivals run past it is an error.
const MaxStart = math.MaxInt32

// Validate checks the spec's parameter ranges.
func (s *Spec) Validate() error {
	if math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) {
		return fmt.Errorf("workload: Rate = %g, want a finite number", s.Rate)
	}
	if s.Flows <= 0 {
		return fmt.Errorf("workload: Flows = %d, want > 0", s.Flows)
	}
	if s.FanOut < 0 {
		return fmt.Errorf("workload: FanOut = %d, want >= 0", s.FanOut)
	}
	switch s.Process {
	case Poisson:
		if s.Rate <= 0 {
			return fmt.Errorf("workload: Poisson needs Rate > 0 (got %g)", s.Rate)
		}
	case Bursty:
		if s.Burst <= 0 || s.Every <= 0 {
			return fmt.Errorf("workload: Bursty needs Burst > 0 and Every > 0 (got %d/%d)", s.Burst, s.Every)
		}
	default:
		return fmt.Errorf("workload: unknown process %d", s.Process)
	}
	return nil
}

// Flow is one generated broadcast: a source injecting at an absolute
// slot, with a destination when the workload is a route discovery
// (Dst == -1 otherwise) and a private seed for its jitter draws.
type Flow struct {
	ID    int
	Src   int
	Dst   int
	Start int
	Seed  uint64
}

// FlowSeed returns flow id's seed under the spec: a pure counter-based
// key, independent of every other flow.
func (s *Spec) FlowSeed(id int) uint64 {
	return rng.CoinWord(s.Seed, uint64(id), 0, flowSeedDomain)
}

// Generate materializes the spec's flow list over an n-node network.
// The arrival timeline comes from one labeled stream; per-flow endpoint
// draws come from each flow's own seeded stream, so the flow list is
// bit-stable under any evaluation order.
func (s *Spec) Generate(n int) ([]Flow, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("workload: n = %d, want > 0", n)
	}
	fan := s.FanOut
	if fan < 1 {
		fan = 1
	}
	arrivals := rng.NewLabeled(s.Seed, "workload-arrivals")
	flows := make([]Flow, 0, s.Flows)
	slot, clock := 0, 0.0
	tooLate := func(at float64) error {
		return fmt.Errorf("workload: arrival %d lands at slot %.4g, past the slot clock's limit %d",
			len(flows), at, MaxStart)
	}
	emit := func(at int) bool {
		for k := 0; k < fan && len(flows) < s.Flows; k++ {
			id := len(flows)
			f := Flow{ID: id, Start: at, Seed: s.FlowSeed(id), Dst: -1}
			ep := rng.NewLabeled(f.Seed, "workload-endpoints")
			f.Src = ep.Intn(n)
			if s.Discovery {
				if n > 1 {
					d := ep.Intn(n - 1)
					if d >= f.Src {
						d++
					}
					f.Dst = d
				} else {
					f.Dst = f.Src
				}
			}
			flows = append(flows, f)
		}
		return len(flows) < s.Flows
	}
	switch s.Process {
	case Poisson:
		for {
			clock += arrivals.ExpFloat64() / s.Rate
			if clock > MaxStart {
				return nil, tooLate(clock)
			}
			if !emit(int(clock)) {
				break
			}
		}
	case Bursty:
		for {
			more := true
			for b := 0; b < s.Burst && more; b++ {
				more = emit(slot)
			}
			if !more {
				break
			}
			if s.Every > MaxStart-slot {
				return nil, tooLate(float64(slot) + float64(s.Every))
			}
			slot += s.Every
		}
	}
	return flows, nil
}

// String renders the spec in the canonical flag grammar ParseSpec
// accepts (the faults.Spec idiom).
func (s *Spec) String() string {
	var parts []string
	parts = append(parts, "proc="+s.Process.String())
	if s.Process == Poisson {
		parts = append(parts, "rate="+strconv.FormatFloat(s.Rate, 'g', -1, 64))
	} else {
		parts = append(parts, "burst="+strconv.Itoa(s.Burst), "every="+strconv.Itoa(s.Every))
	}
	parts = append(parts, "flows="+strconv.Itoa(s.Flows))
	if s.FanOut > 1 {
		parts = append(parts, "fanout="+strconv.Itoa(s.FanOut))
	}
	if s.Discovery {
		parts = append(parts, "discovery=1")
	}
	if s.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatUint(s.Seed, 10))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the comma-separated key=value workload grammar used
// by the -traffic CLI flags:
//
//	proc=poisson|bursty  arrival process (default poisson)
//	rate=F               Poisson arrival events per slot
//	burst=N every=M      bursty process: N events every M slots
//	flows=N              total flows
//	fanout=N             flows per arrival event (default 1)
//	discovery=0|1        route-discovery workload (draw destinations)
//	seed=N               workload seed
//
// An empty string parses to DefaultSpec(0).
func ParseSpec(s string) (Spec, error) {
	spec := DefaultSpec(0)
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	rateSet := false
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return spec, fmt.Errorf("workload: bad field %q (want key=value)", field)
		}
		var err error
		switch key {
		case "proc":
			switch val {
			case "poisson":
				spec.Process = Poisson
			case "bursty":
				spec.Process = Bursty
				if !rateSet {
					spec.Rate = 0
				}
			default:
				err = fmt.Errorf("unknown process %q", val)
			}
		case "rate":
			spec.Rate, err = strconv.ParseFloat(val, 64)
			rateSet = true
		case "burst":
			spec.Burst, err = strconv.Atoi(val)
		case "every":
			spec.Every, err = strconv.Atoi(val)
		case "flows":
			spec.Flows, err = strconv.Atoi(val)
		case "fanout":
			spec.FanOut, err = strconv.Atoi(val)
		case "discovery":
			spec.Discovery = val == "1" || val == "true"
		case "seed":
			spec.Seed, err = strconv.ParseUint(val, 10, 64)
		default:
			err = fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return spec, fmt.Errorf("workload: field %q: %v", field, err)
		}
	}
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	return spec, nil
}
