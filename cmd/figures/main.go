// Command figures regenerates every table and figure of the paper's
// evaluation (and this repo's ablations) and prints them as CSV, markdown,
// an ASCII chart, or JSON.
//
// Usage:
//
//	figures -fig 6a                 # Figure 6(a): CDS size, d=6
//	figures -fig all -format md     # everything, markdown tables
//	figures -fig 7b -quick          # fast replication rule (smoke runs)
//	figures -fig msg -format chart  # message-optimality ablation
//	figures -fig all -out results/  # also write one CSV per figure
//
// Figures: 6a 6b 7a 7b 8a 8b (the paper) plus the ablations listed by
// -fig help. The paper's replication rule (99% CI within ±5%) is the
// default; -quick switches to a light rule for smoke testing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"clustercast/internal/experiment"
	"clustercast/internal/obs"
	"clustercast/internal/obs/live"
	"clustercast/internal/stats"
)

// config holds the parsed command line.
type config struct {
	fig     string
	format  string
	seed    uint64
	quick   bool
	maxN    int
	outDir  string
	workers int
	buildW  int
	run     live.Flags
}

// figureOrder is the canonical listing: the paper's figures first, then
// the ablations.
var figureOrder = []string{
	"6a", "6b", "7a", "7b", "8a", "8b",
	"ratio", "msg", "baselines", "tiebreak", "mobility", "delivery",
	"sicds", "lossy", "maint", "passive", "reliable", "pruning",
	"routing", "storm", "hier", "collision", "election", "covcost", "amort",
	"faults", "burst", "gossip", "traffic", "discovery",
}

// runners builds the figure constructors for a given configuration.
func runners(cfg config, rule stats.StopRule, ns []int) map[string]func() *experiment.Figure {
	seed := cfg.seed
	return map[string]func() *experiment.Figure{
		"6a":        func() *experiment.Figure { return experiment.Fig6(6, ns, seed, rule) },
		"6b":        func() *experiment.Figure { return experiment.Fig6(18, ns, seed, rule) },
		"7a":        func() *experiment.Figure { return experiment.Fig7(6, ns, seed, rule) },
		"7b":        func() *experiment.Figure { return experiment.Fig7(18, ns, seed, rule) },
		"8a":        func() *experiment.Figure { return experiment.Fig8(6, ns, seed, rule) },
		"8b":        func() *experiment.Figure { return experiment.Fig8(18, ns, seed, rule) },
		"ratio":     func() *experiment.Figure { return experiment.ApproxRatio([]int{10, 14, 18, 22}, 5, seed, rule) },
		"msg":       func() *experiment.Figure { return experiment.MessageComplexity(ns, 6, seed, rule) },
		"baselines": func() *experiment.Figure { return experiment.Baselines(ns, 18, seed, rule) },
		"tiebreak":  func() *experiment.Figure { return experiment.TieBreak(ns, 6, seed, rule) },
		"mobility": func() *experiment.Figure {
			return experiment.Mobility([]float64{1, 2, 5, 10, 20}, 60, 8, 10, seed, rule)
		},
		"delivery": func() *experiment.Figure { return experiment.Delivery(ns, 6, seed, rule) },
		"sicds":    func() *experiment.Figure { return experiment.SICDS(ns, 6, seed, rule) },
		"lossy": func() *experiment.Figure {
			return experiment.Lossy([]float64{0, 0.05, 0.1, 0.2, 0.3, 0.5}, 60, 10, seed, rule)
		},
		"maint": func() *experiment.Figure {
			return experiment.Maintenance([]float64{1, 2, 5, 10, 20}, 60, 8, 10, seed, rule)
		},
		"passive": func() *experiment.Figure { return experiment.PassiveConvergence(6, 80, 18, seed, rule) },
		"reliable": func() *experiment.Figure {
			return experiment.Reliable([]float64{0, 0.1, 0.2, 0.3, 0.4}, 60, 10, seed, rule)
		},
		"pruning": func() *experiment.Figure {
			return experiment.Pruning([]int{0, 2, 4, 8, 16}, 80, 18, seed, rule)
		},
		"routing": func() *experiment.Figure { return experiment.Routing(ns, 12, seed, rule) },
		"storm": func() *experiment.Figure {
			return experiment.Storm([]float64{4, 6, 10, 14, 18, 24}, 80, seed, rule)
		},
		"hier": func() *experiment.Figure { return experiment.Hierarchy(ns, 8, 2, seed, rule) },
		"collision": func() *experiment.Figure {
			return experiment.Collision([]float64{6, 10, 14, 18, 24}, 60, 0, seed, rule)
		},
		"election": func() *experiment.Figure { return experiment.Election(ns, 18, seed, rule) },
		"covcost":  func() *experiment.Figure { return experiment.CoverageCost(ns, 18, seed, rule) },
		"amort": func() *experiment.Figure {
			return experiment.Amortized([]int{1, 2, 5, 10, 20, 50}, 80, 18, seed, rule)
		},
		"faults": func() *experiment.Figure {
			return experiment.Faults([]float64{0, 0.05, 0.1, 0.2, 0.3, 0.4}, 60, 10, seed, rule)
		},
		"burst": func() *experiment.Figure {
			return experiment.Burstiness([]float64{1, 2, 4, 8, 16, 32}, 0.2, 60, 10, seed, rule)
		},
		"gossip": func() *experiment.Figure {
			return experiment.GossipAblation(
				[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8, 1},
				[]float64{0, 0.1, 0.3}, 60, 10, seed, rule)
		},
		"traffic": func() *experiment.Figure {
			return experiment.Traffic([]float64{0.05, 0.1, 0.2, 0.4, 0.8}, 60, 10, 32, 3, seed, rule)
		},
		"discovery": func() *experiment.Figure {
			return experiment.Discovery([]float64{0.05, 0.1, 0.2, 0.4, 0.8}, 60, 10, 24, 3, seed, rule)
		},
	}
}

// renderers print one figure to stdout in each -format.
var renderers = map[string]func(w io.Writer, f *experiment.Figure) error{
	"csv": func(w io.Writer, f *experiment.Figure) error {
		_, err := fmt.Fprintf(w, "# %s — %s\n%s\n", f.ID, f.Title, f.CSV())
		return err
	},
	"md": func(w io.Writer, f *experiment.Figure) error {
		_, err := fmt.Fprintln(w, f.Markdown())
		return err
	},
	"chart": func(w io.Writer, f *experiment.Figure) error {
		_, err := fmt.Fprintln(w, f.ASCIIChart(16))
		return err
	},
	"json": func(w io.Writer, f *experiment.Figure) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(f)
	},
}

// run executes the command against the given writers; exit-worthy problems
// come back as errors, diagnostics (missing-point causes) go to stderr. The
// named return lets the deferred session close surface its error.
func run(cfg config, stdout, stderr io.Writer) (retErr error) {
	if cfg.workers < 0 {
		return fmt.Errorf("-workers %d: must not be negative", cfg.workers)
	}
	if cfg.buildW < 0 {
		return fmt.Errorf("-buildworkers %d: must not be negative", cfg.buildW)
	}
	// A figure directory gets a manifest next to its CSVs by default.
	if cfg.outDir != "" && cfg.run.Manifest == "" {
		cfg.run.Manifest = filepath.Join(cfg.outDir, "manifest.json")
	}
	sess, err := cfg.run.Start("figures", stderr)
	if err != nil {
		return err
	}
	defer sess.Close(&retErr)
	sess.Manifest.Seed = cfg.seed
	sess.Manifest.Workers = cfg.workers
	sess.Manifest.Param("fig", cfg.fig).Param("format", cfg.format).
		Param("quick", cfg.quick).Param("maxn", cfg.maxN).Param("buildworkers", cfg.buildW)
	render, ok := renderers[cfg.format]
	if !ok {
		return fmt.Errorf("unknown format %q", cfg.format)
	}
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
	}
	experiment.SetParallelism(cfg.workers)
	experiment.SetBuildWorkers(cfg.buildW)
	rule := stats.PaperRule()
	if cfg.quick {
		rule = stats.StopRule{Confidence: 0.95, RelHalfWidth: 0.15, MinReplicates: 10, MaxReplicates: 40}
	}
	var ns []int
	for _, n := range experiment.DefaultNs() {
		if n <= cfg.maxN {
			ns = append(ns, n)
		}
	}
	if len(ns) == 0 {
		return fmt.Errorf("maxn %d leaves no network sizes to sweep", cfg.maxN)
	}

	all := runners(cfg, rule, ns)
	var picks []string
	if cfg.fig == "all" {
		picks = figureOrder
	} else {
		for _, f := range strings.Split(cfg.fig, ",") {
			f = strings.TrimSpace(f)
			if _, ok := all[f]; !ok {
				return fmt.Errorf("unknown figure %q (known: %s, all)", f, strings.Join(figureOrder, " "))
			}
			picks = append(picks, f)
		}
	}

	// Figure-level progress on top of the sweep-point meter the experiment
	// package maintains: heartbeats show both "which figure" and "how far
	// into its points".
	progFigs := obs.NewProgress("figures.picks")
	progFigs.AddTotal(int64(len(picks)))
	for _, name := range picks {
		f := all[name]()
		progFigs.Step()
		warnMissing(stderr, f)
		if cfg.outDir != "" {
			path := filepath.Join(cfg.outDir, f.ID+".csv")
			if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
				return err
			}
			sess.Manifest.AddOutput(path)
		}
		if err := render(stdout, f); err != nil {
			return err
		}
	}
	return nil
}

// warnMissing diagnoses missing points on stderr. Renderers mark a failed
// measurement as "n/a" / an empty CSV cell; without this, the topology
// generator's descriptive error (attempt cap exhausted, and why) never
// reached the user.
func warnMissing(stderr io.Writer, f *experiment.Figure) {
	missing := 0
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.Missing() {
				missing++
			}
		}
	}
	if missing == 0 {
		return
	}
	fmt.Fprintf(stderr, "figures: warning: %s has %d missing point(s)\n", f.ID, missing)
	if err := experiment.TakeSampleError(); err != nil {
		fmt.Fprintf(stderr, "figures: warning: first sampling failure: %v\n", err)
	}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.fig, "fig", "all",
		"figure(s) to regenerate, comma-separated: "+strings.Join(figureOrder, " ")+", or all")
	flag.StringVar(&cfg.format, "format", "md", "output format: csv, md, chart, json")
	flag.Uint64Var(&cfg.seed, "seed", 2003, "root random seed")
	flag.BoolVar(&cfg.quick, "quick", false, "use a light replication rule instead of the paper's 99% CI ±5%")
	flag.IntVar(&cfg.maxN, "maxn", 100, "largest network size in the sweep")
	flag.StringVar(&cfg.outDir, "out", "",
		"also write each figure as <dir>/<id>.csv, and the run manifest as <dir>/manifest.json unless -manifest is set")
	flag.IntVar(&cfg.workers, "workers", 0,
		"replication worker count (0: GOMAXPROCS); results are bit-identical for any value")
	flag.IntVar(&cfg.buildW, "buildworkers", 0,
		"strips per construction layer inside each replicate — unit-disk sweep, coverage digest, "+
			"gateway and MO_CDS selection, dynamic-backbone init — run on as many goroutines "+
			"(0 or 1: one strip; bit-identical for any value)")
	cfg.run.Register(flag.CommandLine)
	flag.Parse()

	if err := run(cfg, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}
