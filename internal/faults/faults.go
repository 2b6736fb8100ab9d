// Package faults injects deterministic failures into the simulation: node
// crash/recovery churn, Gilbert–Elliott bursty per-link loss, and scripted
// area partitions. The broadcast engines, the reliable layer and the repair
// pass consult a single Oracle for the link/node state of every time slot,
// so one fault schedule composes with every protocol under test.
//
// Everything is derived from Spec.Seed: the same spec and seed reproduce
// the same crash timelines and loss bursts bit for bit, regardless of how
// many worker goroutines drive the replication (each replicate owns its own
// Oracle, exactly like the engines' workspaces).
//
// The Gilbert–Elliott channel is a strict generalization of the engines'
// i.i.d. Bernoulli loss: with PGoodBad == PBadGood == 0 the chain never
// leaves the good state and LossGood is an independent per-copy loss
// probability, identical in distribution to broadcast.Options.Loss.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Partition scripts one area split: while active, every link crossing the
// cut line is down. Node state is unaffected (nodes keep running on both
// sides; they just cannot hear across the cut).
type Partition struct {
	// Start and End bound the active window in engine time slots:
	// the partition is up for Start <= t < End.
	Start, End int
	// Vertical selects the cut axis: a vertical line x == Coord when true,
	// a horizontal line y == Coord when false.
	Vertical bool
	// Coord is the cut coordinate.
	Coord float64
}

// Spec declares a fault schedule. The zero value injects nothing.
type Spec struct {
	// MeanUp and MeanDown parameterize node churn: each node alternates
	// exponentially distributed up and down periods with these means (in
	// time slots), drawn from its own seeded stream. MeanUp == 0 disables
	// churn; neither may be negative.
	MeanUp   float64
	MeanDown float64

	// LossGood and LossBad are the per-copy loss probabilities of the
	// Gilbert–Elliott link channel in its good and bad state. PGoodBad and
	// PBadGood are the per-slot transition probabilities good→bad and
	// bad→good. Every link runs its own chain, starting good.
	LossGood float64
	LossBad  float64
	PGoodBad float64
	PBadGood float64

	// Partitions lists scripted area splits (needs node positions).
	Partitions []Partition

	// Warmup shifts the churn timelines and loss chains forward by this
	// many slots, so a broadcast starting at engine time 0 observes the
	// processes in steady state rather than the everyone-up, all-good
	// initial condition. Partition windows are not shifted: they script
	// the broadcast timeline directly.
	Warmup int

	// Seed drives every draw the oracle makes.
	Seed uint64
}

// Enabled reports whether the spec injects any fault at all.
func (s *Spec) Enabled() bool {
	return s.MeanUp > 0 || s.LossGood > 0 || s.PGoodBad > 0 || len(s.Partitions) > 0
}

// SetBurst configures the link channel as a classic two-parameter
// Gilbert–Elliott burst model: mean loss rate p with mean burst length
// burstLen slots (the bad state always loses, the good state never does).
// burstLen == 1 degenerates to i.i.d. loss of rate p.
func (s *Spec) SetBurst(p, burstLen float64) error {
	if p < 0 || p >= 1 {
		return fmt.Errorf("faults: burst loss rate %g out of [0, 1)", p)
	}
	if burstLen < 1 {
		return fmt.Errorf("faults: burst length %g < 1", burstLen)
	}
	s.LossGood, s.LossBad = 0, 1
	s.PBadGood = 1 / burstLen
	// Stationary bad fraction pGB/(pGB+pBG) must equal p.
	s.PGoodBad = s.PBadGood * p / (1 - p)
	return nil
}

// Validate checks the spec's parameter ranges. Every float must be
// finite: a NaN fails both sides of a range check, so it is rejected
// before the ranges are.
func (s *Spec) Validate() error {
	for _, p := range [...]struct {
		name string
		v    float64
	}{
		{"MeanUp", s.MeanUp}, {"MeanDown", s.MeanDown},
		{"LossGood", s.LossGood}, {"LossBad", s.LossBad},
		{"PGoodBad", s.PGoodBad}, {"PBadGood", s.PBadGood},
	} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("faults: %s = %g, want a finite number", p.name, p.v)
		}
	}
	for _, pt := range s.Partitions {
		if math.IsNaN(pt.Coord) || math.IsInf(pt.Coord, 0) {
			return fmt.Errorf("faults: partition coordinate %g, want a finite number", pt.Coord)
		}
	}
	if s.MeanUp < 0 || s.MeanDown < 0 {
		return fmt.Errorf("faults: negative churn mean (MeanUp %g, MeanDown %g)", s.MeanUp, s.MeanDown)
	}
	if s.MeanUp > 0 && s.MeanDown == 0 {
		return fmt.Errorf("faults: churn needs MeanDown > 0 (got %g)", s.MeanDown)
	}
	for _, p := range [...]struct {
		name string
		v    float64
	}{
		{"LossGood", s.LossGood}, {"LossBad", s.LossBad},
		{"PGoodBad", s.PGoodBad}, {"PBadGood", s.PBadGood},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s = %g out of [0, 1]", p.name, p.v)
		}
	}
	if s.PGoodBad > 0 && s.PBadGood == 0 {
		return fmt.Errorf("faults: PGoodBad > 0 with PBadGood == 0 traps every link in the bad state")
	}
	for _, pt := range s.Partitions {
		if pt.End <= pt.Start {
			return fmt.Errorf("faults: partition window [%d, %d) is empty", pt.Start, pt.End)
		}
	}
	if s.Warmup < 0 {
		return fmt.Errorf("faults: negative warmup %d", s.Warmup)
	}
	return nil
}

// String renders the spec in the canonical flag grammar ParseSpec accepts.
func (s *Spec) String() string {
	var parts []string
	add := func(k string, v float64) { parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64)) }
	if s.MeanUp > 0 {
		add("mtbf", s.MeanUp)
		add("mttr", s.MeanDown)
	}
	if s.LossGood > 0 {
		add("lg", s.LossGood)
	}
	if s.LossBad > 0 {
		add("lb", s.LossBad)
	}
	if s.PGoodBad > 0 {
		add("pgb", s.PGoodBad)
	}
	if s.PBadGood > 0 {
		add("pbg", s.PBadGood)
	}
	for _, pt := range s.Partitions {
		axis := "y"
		if pt.Vertical {
			axis = "x"
		}
		parts = append(parts, fmt.Sprintf("part=%d:%d:%s:%s",
			pt.Start, pt.End, axis, strconv.FormatFloat(pt.Coord, 'g', -1, 64)))
	}
	if s.Warmup > 0 {
		parts = append(parts, "warmup="+strconv.Itoa(s.Warmup))
	}
	if s.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatUint(s.Seed, 10))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the comma-separated key=value fault grammar used by the
// -faults CLI flags:
//
//	mtbf=F     mean up time between crashes (slots); enables churn
//	mttr=F     mean down time until recovery (default mtbf/4)
//	loss=F     i.i.d. per-copy loss probability (LossGood=F, no transitions)
//	burst=F:L  bursty loss: mean rate F with mean burst length L slots
//	lg= lb= pgb= pbg=   raw Gilbert–Elliott parameters
//	part=T0:T1:x|y:C    scripted partition cutting at x==C (or y==C)
//	warmup=N   start the churn/loss processes N slots in
//	seed=N     fault seed (default 0; callers usually mix in their run seed)
//
// An empty string parses to the disabled zero Spec.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	mttrSet := false
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return spec, fmt.Errorf("faults: bad field %q (want key=value)", field)
		}
		num := func() (float64, error) { return strconv.ParseFloat(val, 64) }
		var err error
		switch key {
		case "mtbf":
			if spec.MeanUp, err = num(); err == nil && spec.MeanUp <= 0 {
				err = fmt.Errorf("mean up time must be positive") // NaN fails in Validate
			}
		case "mttr":
			spec.MeanDown, err = num()
			mttrSet = true
		case "loss":
			spec.LossGood, err = num()
		case "lg":
			spec.LossGood, err = num()
		case "lb":
			spec.LossBad, err = num()
		case "pgb":
			spec.PGoodBad, err = num()
		case "pbg":
			spec.PBadGood, err = num()
		case "burst":
			p, l, ok := strings.Cut(val, ":")
			if !ok {
				return spec, fmt.Errorf("faults: burst wants rate:length, got %q", val)
			}
			var pf, lf float64
			if pf, err = strconv.ParseFloat(p, 64); err == nil {
				if lf, err = strconv.ParseFloat(l, 64); err == nil {
					err = spec.SetBurst(pf, lf)
				}
			}
		case "part":
			var pt Partition
			pt, err = parsePartition(val)
			spec.Partitions = append(spec.Partitions, pt)
		case "warmup":
			spec.Warmup, err = strconv.Atoi(val)
		case "seed":
			spec.Seed, err = strconv.ParseUint(val, 10, 64)
		default:
			return spec, fmt.Errorf("faults: unknown field %q", key)
		}
		if err != nil {
			return spec, fmt.Errorf("faults: field %q: %w", field, err)
		}
	}
	if spec.MeanUp > 0 && !mttrSet {
		spec.MeanDown = spec.MeanUp / 4
	}
	sortPartitions(spec.Partitions)
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	return spec, nil
}

// parsePartition parses one T0:T1:x|y:C partition clause.
func parsePartition(val string) (Partition, error) {
	var pt Partition
	fields := strings.Split(val, ":")
	if len(fields) != 4 {
		return pt, fmt.Errorf("want t0:t1:x|y:coord, got %q", val)
	}
	var err error
	if pt.Start, err = strconv.Atoi(fields[0]); err != nil {
		return pt, err
	}
	if pt.End, err = strconv.Atoi(fields[1]); err != nil {
		return pt, err
	}
	switch fields[2] {
	case "x":
		pt.Vertical = true
	case "y":
		pt.Vertical = false
	default:
		return pt, fmt.Errorf("axis %q is neither x nor y", fields[2])
	}
	if pt.Coord, err = strconv.ParseFloat(fields[3], 64); err != nil {
		return pt, err
	}
	return pt, nil
}

// sortPartitions orders partitions by start time (stable presentation for
// String; the oracle scans all of them anyway).
func sortPartitions(ps []Partition) {
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].Start < ps[j].Start })
}
