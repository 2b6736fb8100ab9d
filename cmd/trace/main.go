// Command trace inspects a broadcast event trace (JSONL) recorded with
// manetsim -trace or scale -trace: it replays the typed event stream into a
// per-hop relay timeline, counts the dynamic backbone's coverage prunes by
// rule, and reconciles the stream against itself (every relay must first
// have been delivered to, every hop's deliveries must come from that hop's
// transmissions).
//
// With -heartbeat it instead inspects a live-telemetry heartbeat stream
// (JSONL from any driver's -heartbeat flag): the stream is schema-validated
// (canonical lines, consecutive seq, monotone elapsed) and digested into
// sampling cadence, memory envelope, progress, top counters and stages.
//
// Usage:
//
//	trace run.jsonl
//	trace -heartbeat hb.jsonl
//	manetsim -n 60 -protocols dynamic-2.5 -trace /dev/stdout | trace -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"clustercast/internal/obs"
)

// hopStat aggregates one simulation time unit of the trace.
type hopStat struct {
	sends      int
	delivers   int
	duplicates int
	collisions int
}

// analysis is the digested trace.
type analysis struct {
	events   int
	dropped  int64 // leading Seq gap: ring-overwritten history
	kinds    map[obs.EventKind]int
	rules    map[obs.PruneRule]int
	hops     map[int]*hopStat
	source   int
	relays   map[int]bool // distinct sending nodes
	received map[int]bool // source + delivered nodes
}

// analyze folds the event stream.
func analyze(events []obs.Event) *analysis {
	a := &analysis{
		events:   len(events),
		kinds:    make(map[obs.EventKind]int),
		rules:    make(map[obs.PruneRule]int),
		hops:     make(map[int]*hopStat),
		source:   -1,
		relays:   make(map[int]bool),
		received: make(map[int]bool),
	}
	if len(events) > 0 {
		a.dropped = events[0].Seq
	}
	hop := func(t int) *hopStat {
		h := a.hops[t]
		if h == nil {
			h = &hopStat{}
			a.hops[t] = h
		}
		return h
	}
	for _, ev := range events {
		a.kinds[ev.Kind]++
		switch ev.Kind {
		case obs.EvSend:
			hop(ev.T).sends++
			a.relays[ev.Node] = true
			if ev.Peer == -1 && a.source == -1 {
				a.source = ev.Node
				a.received[ev.Node] = true
			}
		case obs.EvDeliver:
			hop(ev.T).delivers++
			a.received[ev.Node] = true
		case obs.EvDuplicate:
			hop(ev.T).duplicates++
		case obs.EvCollision:
			hop(ev.T).collisions++
		case obs.EvCoveragePrune:
			a.rules[ev.Rule]++
		}
	}
	return a
}

// reconcile cross-checks the stream's internal consistency; a complete
// trace of one broadcast satisfies all of these by construction.
func (a *analysis) reconcile() []string {
	var problems []string
	if a.dropped > 0 {
		problems = append(problems, fmt.Sprintf("ring overwrote %d leading events; counts below are partial", a.dropped))
		return problems // a truncated stream legitimately fails the checks below
	}
	for v := range a.relays {
		if !a.received[v] {
			problems = append(problems, fmt.Sprintf("node %d transmitted but never received", v))
		}
	}
	if a.source == -1 && a.kinds[obs.EvSend] > 0 {
		problems = append(problems, "no source transmission (send with peer=-1) recorded")
	}
	if got, want := a.kinds[obs.EvDeliver], len(a.received)-1; a.source != -1 && got != want {
		problems = append(problems, fmt.Sprintf("%d deliver events for %d non-source receivers", got, want))
	}
	return problems
}

// run executes the inspector against the given writer.
func run(path string, stdout io.Writer) error {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	events, err := obs.ReadJSONL(r)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("trace is empty")
	}
	a := analyze(events)

	fmt.Fprintf(stdout, "trace: %d events", a.events)
	if a.dropped > 0 {
		fmt.Fprintf(stdout, " (+%d overwritten by the ring)", a.dropped)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "source: %d\n", a.source)
	fmt.Fprintf(stdout, "forward nodes: %d   reached: %d\n", len(a.relays), len(a.received))
	fmt.Fprintf(stdout, "sends=%d delivers=%d duplicates=%d collisions=%d gateway-selects=%d prunes=%d\n",
		a.kinds[obs.EvSend], a.kinds[obs.EvDeliver], a.kinds[obs.EvDuplicate],
		a.kinds[obs.EvCollision], a.kinds[obs.EvGatewaySelect], a.kinds[obs.EvCoveragePrune])
	if crashes, recovers := a.kinds[obs.EvNodeCrash], a.kinds[obs.EvNodeRecover]; crashes+recovers > 0 {
		fmt.Fprintf(stdout, "node-crashes=%d node-recovers=%d\n", crashes, recovers)
	}

	if a.kinds[obs.EvCoveragePrune] > 0 {
		fmt.Fprintln(stdout, "\ncoverage prunes by rule:")
		for _, rule := range []obs.PruneRule{obs.RuleUpstreamSender, obs.RulePiggybackedSet, obs.RuleSecondHopAdjacent} {
			fmt.Fprintf(stdout, "  %-20s %d\n", rule.String(), a.rules[rule])
		}
	}

	times := make([]int, 0, len(a.hops))
	for t := range a.hops {
		times = append(times, t)
	}
	sort.Ints(times)
	fmt.Fprintln(stdout, "\nper-hop timeline:")
	fmt.Fprintf(stdout, "  %4s %7s %9s %11s %11s %9s\n", "hop", "sends", "delivers", "duplicates", "collisions", "covered")
	covered := 0
	if a.source != -1 {
		covered = 1
	}
	for _, t := range times {
		h := a.hops[t]
		covered += h.delivers
		fmt.Fprintf(stdout, "  %4d %7d %9d %11d %11d %9d\n", t, h.sends, h.delivers, h.duplicates, h.collisions, covered)
	}

	if problems := a.reconcile(); len(problems) > 0 {
		fmt.Fprintln(stdout, "\nreconciliation:")
		for _, p := range problems {
			fmt.Fprintf(stdout, "  WARN %s\n", p)
		}
	} else {
		fmt.Fprintln(stdout, "\nreconciliation: ok")
	}
	return nil
}

func main() {
	var hbPath string
	flag.StringVar(&hbPath, "heartbeat", "",
		"inspect a heartbeat stream (JSONL from a driver's -heartbeat flag) instead of an event trace")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: trace <file.jsonl | -> | trace -heartbeat <file.jsonl | ->\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if hbPath != "" {
		if flag.NArg() != 0 {
			flag.Usage()
			os.Exit(2)
		}
		if err := runHeartbeat(hbPath, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
}
