// Command manetsim simulates one MANET scenario end to end: it generates a
// random connected unit-disk-graph network (or loads a snapshot), clusters
// it, builds every backbone, and runs one broadcast under each protocol,
// printing a comparison table.
//
// Usage:
//
//	manetsim -n 100 -d 18 -seed 7 -source 0
//	manetsim -n 60 -d 6 -protocols flooding,dynamic-2.5,mo-cds
//	manetsim -n 80 -d 10 -faults mtbf=100,mttr=30   # churn + repair report
//	manetsim -load net.json -wire
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"clustercast/internal/backbone"
	"clustercast/internal/broadcast"
	"clustercast/internal/core"
	"clustercast/internal/coverage"
	"clustercast/internal/faults"
	"clustercast/internal/fwdtree"
	"clustercast/internal/marking"
	"clustercast/internal/obs"
	"clustercast/internal/obs/live"
	"clustercast/internal/passive"
	"clustercast/internal/rng"
	"clustercast/internal/sim"
	"clustercast/internal/topology"
	"clustercast/internal/workload"
)

// config holds the parsed command line.
type config struct {
	n         int
	d         float64
	seed      uint64
	source    int
	protocols string
	faults    string
	traffic   string
	wire      bool
	load      string
	buildW    int
	trace     string
	run       live.Flags
}

// protocolNames lists the rows of the comparison table, in the order
// buildRuns builds them.
var protocolNames = []string{
	"flooding", "gossip", "mpr", "dp", "pdp", "static-2.5", "static-3",
	"dynamic-2.5", "dynamic-3", "mo-cds", "marking", "fwd-tree", "passive",
	"sba", "counter-3", "distance",
}

// protocolRun is one row of the comparison table.
type protocolRun struct {
	name string
	run  func() (*broadcast.Result, error)
}

// buildRuns assembles the protocol table for a network and source. A
// non-nil tr threads the trace recorder through whichever engine the row
// uses; run() guarantees at most one traced row executes, so the trace
// holds exactly one broadcast. Each row draws its own fault oracle from
// newOracle: an oracle numbers the loss coins of a link's slot in query
// order, so a shared one would hand a row the coins an earlier row left
// off at, and the row's outcome would depend on the rows run before it.
func buildRuns(nw *core.Network, src int, seed uint64, tr *obs.Tracer, newOracle func() *faults.Oracle) []protocolRun {
	g := nw.Graph()
	ok := func(r *broadcast.Result) (*broadcast.Result, error) { return r, nil }
	opt := func() broadcast.Options { return broadcast.Options{Tracer: tr, Faults: newOracle()} }
	topt := func() broadcast.TimedOptions { return broadcast.TimedOptions{Tracer: tr, Faults: newOracle()} }
	static := func(mode core.Mode) (*broadcast.Result, error) {
		s := nw.StaticBackbone(mode)
		return ok(broadcast.RunOpts(g, src, broadcast.StaticCDS{Set: s.Nodes, Label: "static-" + s.Mode.String()}, opt()))
	}
	dynamic := func(mode core.Mode) (*broadcast.Result, error) {
		p := nw.DynamicProtocol(mode)
		p.SetTracer(tr)
		// Run through the engine options directly so the fault oracle (and
		// tracer) reach the engine; p.Broadcast would drop the oracle.
		return ok(broadcast.RunOpts(g, src, p, opt()))
	}
	return []protocolRun{
		{"flooding", func() (*broadcast.Result, error) { return ok(broadcast.RunOpts(g, src, broadcast.Flooding{}, opt())) }},
		{"gossip", func() (*broadcast.Result, error) {
			return ok(broadcast.RunOpts(g, src, broadcast.Gossip{P: 0.7, Seed: seed}, opt()))
		}},
		{"mpr", func() (*broadcast.Result, error) { return ok(broadcast.RunOpts(g, src, broadcast.NewMPR(g), opt())) }},
		{"dp", func() (*broadcast.Result, error) { return ok(broadcast.RunOpts(g, src, broadcast.NewDP(g), opt())) }},
		{"pdp", func() (*broadcast.Result, error) { return ok(broadcast.RunOpts(g, src, broadcast.NewPDP(g), opt())) }},
		{"static-2.5", func() (*broadcast.Result, error) { return static(core.Hop25) }},
		{"static-3", func() (*broadcast.Result, error) { return static(core.Hop3) }},
		{"dynamic-2.5", func() (*broadcast.Result, error) { return dynamic(core.Hop25) }},
		{"dynamic-3", func() (*broadcast.Result, error) { return dynamic(core.Hop3) }},
		{"mo-cds", func() (*broadcast.Result, error) {
			return ok(broadcast.RunOpts(g, src, broadcast.StaticCDS{Set: nw.MOCDS(), Label: "mo-cds"}, opt()))
		}},
		{"marking", func() (*broadcast.Result, error) {
			return ok(broadcast.RunOpts(g, src, broadcast.StaticCDS{Set: marking.Build(g), Label: "marking"}, opt()))
		}},
		{"fwd-tree", func() (*broadcast.Result, error) {
			b := coverage.NewBuilder(g, nw.Clustering, coverage.Hop25)
			tree, err := fwdtree.Build(b, nw.Clustering, src)
			if err != nil {
				return nil, err
			}
			return ok(broadcast.RunOpts(g, src, broadcast.StaticCDS{Set: tree.Nodes, Label: "fwd-tree"}, opt()))
		}},
		{"passive", func() (*broadcast.Result, error) {
			if tr != nil {
				return nil, fmt.Errorf("tracing is not supported for the multi-round passive series")
			}
			series := passive.RunSeries(g, []int{src, src, src})
			return ok(series[len(series)-1])
		}},
		{"sba", func() (*broadcast.Result, error) {
			return ok(broadcast.RunTimedOpts(g, src, broadcast.NewSBA(g, 4, seed), topt()))
		}},
		{"counter-3", func() (*broadcast.Result, error) {
			return ok(broadcast.RunTimedOpts(g, src, broadcast.CounterBased{Threshold: 3, MaxDelay: 4, Seed: seed}, topt()))
		}},
		{"distance", func() (*broadcast.Result, error) {
			return ok(broadcast.RunTimedOpts(g, src, broadcast.DistanceBased{
				Positions: nw.Topology.Positions, MinDistance: nw.Topology.Radius * 0.4,
				MaxDelay: 4, Seed: seed,
			}, topt()))
		}},
	}
}

// parsed is the command line checked before anything is built: the
// fault and traffic specs, each seeded from -seed when it names no seed
// of its own, and the selected protocol rows (nil for all).
type parsed struct {
	faults  *faults.Spec
	traffic *workload.Spec
	want    map[string]bool
}

// parse checks every flag that does not need the network, and the source
// against n unless the network comes from -load (a source below -1 fails
// either way), so that a bad flag fails the run before anything is built
// or printed.
func parse(cfg config) (parsed, error) {
	var ps parsed
	if cfg.buildW < 0 {
		return ps, fmt.Errorf("-buildworkers %d: must not be negative", cfg.buildW)
	}
	if cfg.faults != "" {
		spec, err := faults.ParseSpec(cfg.faults)
		if err != nil {
			return ps, fmt.Errorf("-faults: %w", err)
		}
		if spec.Seed == 0 {
			spec.Seed = cfg.seed
		}
		ps.faults = &spec
	}
	if cfg.traffic != "" {
		spec, err := workload.ParseSpec(cfg.traffic)
		if err != nil {
			return ps, fmt.Errorf("-traffic: %w", err)
		}
		if spec.Seed == 0 {
			spec.Seed = cfg.seed
		}
		ps.traffic = &spec
	}
	if cfg.protocols != "all" {
		ps.want = map[string]bool{}
		for _, p := range strings.Split(cfg.protocols, ",") {
			p = strings.TrimSpace(p)
			if !slices.Contains(protocolNames, p) {
				return ps, fmt.Errorf("unknown protocol %q", p)
			}
			ps.want[p] = true
		}
	}
	// A trace file holds exactly one broadcast, so the protocol must be
	// unambiguous.
	if cfg.trace != "" && len(ps.want) != 1 {
		return ps, fmt.Errorf("-trace needs exactly one protocol selected (e.g. -protocols dynamic-2.5)")
	}
	if cfg.source < -1 {
		return ps, fmt.Errorf("-source %d: want a node ID, or -1 for a random source", cfg.source)
	}
	if cfg.load == "" {
		return ps, checkSource(cfg.source, cfg.n)
	}
	return ps, nil
}

// checkSource rejects a -source beyond the network's n nodes; -1 draws
// the source at random, and parse has rejected anything below it.
func checkSource(src, n int) error {
	if src >= n {
		return fmt.Errorf("source %d out of range (n=%d)", src, n)
	}
	return nil
}

// traceCapacity sizes the -trace ring for one broadcast of the named
// protocol over nw. Every transmission is recorded once and reaches each
// neighbor of its sender at most once (a delivery or a duplicate), so a
// broadcast in which each node relays at most once records at most
// n + 2m radio events: an ideal-radio flood records exactly n sends,
// n−1 deliveries and 2m−(n−1) duplicates. A dynamic-backbone
// clusterhead adds one gateway-select event per gateway it designates
// (at most its degree) and one coverage-prune event per clusterhead it
// drops from its coverage set (at most the set's size). The ring never
// holds fewer than 16n events, which leaves a faulted broadcast room for
// the crash and recover events of its slots. What can still overflow:
// the repeat relays of the designating protocols (mpr, dp, pdp and
// dynamic-*), whose nodes relay again on each new designating payload,
// with the copies those relays deliver, and churn beyond the headroom
// (left out with a note; see run).
func traceCapacity(nw *core.Network, protocol string) int {
	g := nw.Graph()
	c := g.N() + 2*g.M()
	if mode, ok := map[string]core.Mode{"dynamic-2.5": core.Hop25, "dynamic-3": core.Hop3}[protocol]; ok {
		b := coverage.NewBuilder(g, nw.Clustering, mode)
		for _, h := range nw.Heads() {
			c += g.Degree(h) + b.Of(h).Size()
		}
	}
	return max(c, 16*g.N())
}

// runTraffic drives the -traffic workload over each relay structure:
// concurrent multi-source broadcasts (or RREQ floods when the spec says
// discovery=1) contending for MAC slots, one comparison row per backbone.
// Like the protocol rows, each backbone row gets its own fault oracle.
func runTraffic(nw *core.Network, spec workload.Spec, flows []workload.Flow, newOracle func() *faults.Oracle, stdout io.Writer) {
	const jitter = 3
	g := nw.Graph()
	opt := func() broadcast.MACOptions { return broadcast.MACOptions{Jitter: jitter, Faults: newOracle()} }
	shared := func(p broadcast.Protocol) workload.ProtoFactory {
		return func(int) broadcast.Protocol { return p }
	}
	type bk struct {
		name  string
		proto workload.ProtoFactory
	}
	st := nw.StaticBackbone(core.Hop25)
	mo := nw.MOCDS()
	backbones := []bk{
		{"flooding", shared(broadcast.Flooding{})},
		{"static-2.5", shared(broadcast.StaticCDS{Set: st.Nodes, Label: "static-2.5hop"})},
		{"dynamic-2.5", shared(nw.DynamicProtocol(core.Hop25))},
		{"mo-cds", shared(broadcast.StaticCDS{Set: mo, Label: "mo-cds"})},
	}
	fmt.Fprintf(stdout, "\ntraffic workload: %s (%d flows, jitter %d)\n", spec.String(), len(flows), jitter)
	if spec.Discovery {
		fmt.Fprintf(stdout, "%-12s %9s %9s %9s %9s %9s\n",
			"protocol", "found", "success", "latency", "routelen", "stretch")
		for _, b := range backbones {
			dr := workload.RunDiscovery(g, flows, b.proto, opt(), broadcast.RunMACMulti)
			fmt.Fprintf(stdout, "%-12s %4d/%-4d %8.1f%% %9.1f %9.2f %9.2f\n",
				b.name, dr.Found, dr.Requests, 100*dr.SuccessRatio,
				dr.MeanLatency, dr.MeanRouteLen, dr.MeanStretch)
		}
		return
	}
	fmt.Fprintf(stdout, "%-12s %9s %10s %9s %10s %6s\n",
		"protocol", "delivery", "throughput", "latency", "collisions", "cross")
	for _, b := range backbones {
		tr := workload.RunTraffic(g, flows, b.proto, opt(), broadcast.RunMACMulti)
		fmt.Fprintf(stdout, "%-12s %8.1f%% %10.2f %9.1f %10d %6d\n",
			b.name, 100*tr.DeliveryRatio, tr.Throughput, tr.MeanLatency,
			tr.Collisions, tr.CrossCollisions)
	}
}

// loadNetwork resolves the scenario network from the configuration.
func loadNetwork(cfg *config) (*core.Network, error) {
	if cfg.load != "" {
		f, err := os.Open(cfg.load)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tn, err := topology.Load(f)
		if err != nil {
			return nil, err
		}
		nw := core.FromTopology(tn)
		cfg.n, cfg.d = nw.N(), nw.Graph().AvgDegree()
		return nw, nil
	}
	return core.NewRandomNetwork(core.NetworkSpec{N: cfg.n, AvgDegree: cfg.d, Seed: cfg.seed, BuildWorkers: cfg.buildW})
}

// run executes the command against the given writer. The named return lets
// the deferred session close surface its error; telemetry status goes to
// stderr, stdout carries the report.
func run(cfg config, stdout io.Writer) (retErr error) {
	ps, err := parse(cfg)
	if err != nil {
		return err
	}
	sess, err := cfg.run.Start("manetsim", os.Stderr)
	if err != nil {
		return err
	}
	defer sess.Close(&retErr)
	sess.Manifest.Seed = cfg.seed
	sess.Manifest.Param("protocols", cfg.protocols).Param("load", cfg.load).
		Param("wire", cfg.wire).Param("faults", cfg.faults).Param("traffic", cfg.traffic).
		Param("buildworkers", cfg.buildW)

	nw, err := loadNetwork(&cfg)
	if err != nil {
		return err
	}
	if err := checkSource(cfg.source, cfg.n); err != nil {
		return err
	}
	// The flows need the node count, which -load takes from the snapshot;
	// they are drawn before anything is printed, so that a spec the
	// network cannot serve fails the run first.
	var flows []workload.Flow
	if ps.traffic != nil {
		if flows, err = ps.traffic.Generate(nw.N()); err != nil {
			return fmt.Errorf("-traffic: %w", err)
		}
	}
	// The simulated network's size and degree, which -load takes from the
	// snapshot.
	sess.Manifest.Param("n", cfg.n).Param("d", cfg.d)
	fmt.Fprintln(stdout, "network:", nw.Summarize())

	// newOracle gives every table row a fresh oracle of the fault schedule
	// (nil without -faults). oracle serves the header, the churn trace and
	// the repair report, which ask only node liveness: a pure function of
	// the schedule, whichever oracle answers.
	newOracle := func() *faults.Oracle { return nil }
	var oracle *faults.Oracle
	if ps.faults != nil {
		newOracle = func() *faults.Oracle {
			o := faults.New(*ps.faults, nw.N())
			o.SetPositions(nw.Topology.Positions)
			return o
		}
		oracle = newOracle()
		fmt.Fprintf(stdout, "faults: %s (alive at t=0: %d/%d)\n",
			ps.faults.String(), oracle.AliveCount(0), nw.N())
	}

	src := cfg.source
	if src < 0 {
		src = rng.NewLabeled(cfg.seed, "source").Intn(cfg.n)
	}
	sess.Manifest.Param("source", src)
	if oracle != nil && !oracle.NodeUp(src, 0) {
		fmt.Fprintf(stdout, "note: source %d is down at t=0 under this fault schedule; nothing will spread\n", src)
	}
	fmt.Fprintf(stdout, "broadcast source: %d\n\n", src)

	var tracer *obs.Tracer
	traceCap := 0
	if cfg.trace != "" {
		for name := range ps.want { // parse left exactly one
			traceCap = traceCapacity(nw, name)
		}
		tracer = obs.NewTracer(traceCap)
	}
	runs := buildRuns(nw, src, cfg.seed, tracer, newOracle)

	// A row that cannot run on this network (fwd-tree on a disconnected
	// one, passive under -trace) prints why in its own row; the rest of
	// the table and the reports still run, and the run then fails naming
	// the failed rows.
	var failed []string
	fmt.Fprintf(stdout, "%-12s %9s %9s %9s\n", "protocol", "forwards", "delivery", "latency")
	for _, r := range runs {
		if ps.want != nil && !ps.want[r.name] {
			continue
		}
		res, err := r.run()
		if err != nil {
			fmt.Fprintf(stdout, "%-12s failed: %v\n", r.name, err)
			failed = append(failed, fmt.Sprintf("%s (%v)", r.name, err))
			continue
		}
		fmt.Fprintf(stdout, "%-12s %9d %8.1f%% %9d\n",
			r.name, res.ForwardCount(), 100*res.DeliveryRatio(cfg.n), res.Latency)
	}

	if ps.traffic != nil {
		runTraffic(nw, *ps.traffic, flows, newOracle, stdout)
	}

	if tracer != nil && len(failed) == 0 {
		// The churn the traced broadcast ran through: every crash and
		// recovery in the slots up to its last event. It goes into the
		// ring only when it fits beside the whole broadcast, which it
		// would otherwise overwrite.
		span := 0
		for _, ev := range tracer.Events() {
			span = max(span, ev.T+1)
		}
		probe := obs.NewTracer(1)
		oracle.TraceTransitions(probe, 0, span)
		if churn := probe.Len() + int(probe.Dropped()); tracer.Dropped() == 0 && tracer.Len()+churn <= traceCap {
			oracle.TraceTransitions(tracer, 0, span)
		} else if churn > 0 {
			fmt.Fprintf(stdout, "\nnote: %d crash/recover events left out of the trace; with the broadcast they overflow its %d-event ring\n", churn, traceCap)
		}
		if err := sess.WriteTrace(cfg.trace, tracer); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\ntrace: %s (%d events, %d dropped)\n", cfg.trace, tracer.Len(), tracer.Dropped())
	}

	if oracle != nil {
		// Self-healing demo: diff the proactive backbone against the t=0
		// crash state and repair it (clusterheads re-elected on the
		// surviving graph, gateway selections redone only within three hops
		// of a change).
		alive := oracle.Alive(0)
		base := nw.StaticBackbone(core.Hop25)
		allUp := func(int) bool { return true }
		_, repaired, st, err := backbone.Repair(nw.Graph(), nw.Clustering, base, allUp, alive, backbone.Options{}, nil)
		if err != nil {
			return fmt.Errorf("backbone repair: %w", err)
		}
		fmt.Fprintf(stdout, "\nbackbone repair (2.5-hop, vs t=0 crash state):\n")
		fmt.Fprintf(stdout, "  crashed nodes: %d, dead clusterheads: %d\n", st.Changed, st.DeadHeads)
		fmt.Fprintf(stdout, "  re-elected (wavefront): %d nodes, rehomed: %d, gateway selections redone: %d\n",
			st.Tracked, st.Rehomed, st.Reselected)
		fmt.Fprintf(stdout, "  backbone size: %d -> %d\n", base.Size(), repaired.Size())
	}

	if cfg.wire {
		out := sim.Run(nw.Graph(), core.Hop25)
		fmt.Fprintf(stdout, "\nwire protocol (2.5-hop): %s\n", out.Counters.String())
		fmt.Fprintf(stdout, "distributed backbone size: %d\n", len(out.Backbone))
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d protocol row(s) failed: %s", len(failed), strings.Join(failed, "; "))
	}
	return nil
}

func main() {
	var cfg config
	flag.IntVar(&cfg.n, "n", 100, "number of nodes")
	flag.Float64Var(&cfg.d, "d", 6, "target average node degree")
	flag.Uint64Var(&cfg.seed, "seed", 1, "random seed")
	flag.IntVar(&cfg.source, "source", -1, "broadcast source (-1: random)")
	flag.StringVar(&cfg.protocols, "protocols", "all",
		"comma list: "+strings.Join(protocolNames, ",")+" (or all)")
	flag.StringVar(&cfg.faults, "faults", "",
		"fault schedule, e.g. 'mtbf=200,mttr=50,burst=0.2:8,part=10:40:x:50' (see internal/faults); applies to every engine-run protocol and prints a backbone-repair report")
	flag.StringVar(&cfg.traffic, "traffic", "",
		"traffic workload spec, e.g. 'proc=poisson,rate=0.2,flows=32' or 'proc=bursty,burst=4,every=10,flows=40,discovery=1' "+
			"(see internal/workload); runs concurrent multi-source broadcasts per backbone and prints a load report")
	flag.BoolVar(&cfg.wire, "wire", false, "also run the distributed wire-protocol construction and print message counts")
	flag.StringVar(&cfg.load, "load", "", "load a topology snapshot (JSON, from topogen -save) instead of generating one")
	flag.IntVar(&cfg.buildW, "buildworkers", 0,
		"strips the unit-disk construction is cut into, run on as many goroutines "+
			"(0 or 1: one strip; the network is bit-identical for any value)")
	flag.StringVar(&cfg.trace, "trace", "",
		"record the broadcast's event stream (JSONL) to this file; requires exactly one -protocols entry")
	cfg.run.Register(flag.CommandLine)
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "manetsim: %v\n", err)
		os.Exit(1)
	}
}
