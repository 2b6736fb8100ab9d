// Command topogen generates random MANET topologies and dumps them as
// CSV (node positions + edges), Graphviz DOT (with the backbone
// highlighted), a one-line summary, or a JSON snapshot reloadable by
// manetsim -load.
//
// Usage:
//
//	topogen -n 50 -d 6 -seed 3 -format dot > net.dot
//	topogen -n 100 -d 18 -format csv
//	topogen -n 80 -d 6 -placement grid -format summary
//	topogen -n 60 -d 10 -save net.json
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"clustercast/internal/core"
	"clustercast/internal/geom"
	"clustercast/internal/rng"
	"clustercast/internal/topology"
)

// config holds the parsed command line.
type config struct {
	n         int
	d         float64
	seed      uint64
	side      float64
	format    string
	placement string
	save      string
}

// generate builds the topology per the configuration.
func generate(cfg config) (*topology.Network, error) {
	if math.IsNaN(cfg.d) || math.IsInf(cfg.d, 0) {
		return nil, fmt.Errorf("-d must be finite, got %g", cfg.d)
	}
	bounds := geom.Square(cfg.side)
	r := rng.NewLabeled(cfg.seed, "topogen")
	radius := geom.RangeForDegree(cfg.n, bounds.Area(), cfg.d)
	switch cfg.placement {
	case "uniform":
		return topology.Generate(topology.Config{
			N: cfg.n, Bounds: bounds, AvgDegree: cfg.d, RequireConnected: true,
		}, r)
	case "grid":
		return topology.GridPlacement(cfg.n, bounds, radius, radius/4, r), nil
	case "clustered":
		return topology.ClusteredPlacement(cfg.n, 4, bounds, radius, cfg.side/10, r), nil
	default:
		return nil, fmt.Errorf("unknown placement %q", cfg.placement)
	}
}

// run executes the command against the given writer.
func run(cfg config, stdout io.Writer) error {
	nw, err := generate(cfg)
	if err != nil {
		return err
	}

	if cfg.save != "" {
		f, err := os.Create(cfg.save)
		if err != nil {
			return err
		}
		if err := nw.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	cnw := core.FromTopology(nw)
	switch cfg.format {
	case "summary":
		fmt.Fprintln(stdout, cnw.Summarize())
	case "csv":
		fmt.Fprintln(stdout, "id,x,y")
		for i, p := range nw.Positions {
			fmt.Fprintf(stdout, "%d,%.4f,%.4f\n", i, p.X, p.Y)
		}
		fmt.Fprintln(stdout, "u,v")
		for _, e := range nw.G.Edges() {
			fmt.Fprintf(stdout, "%d,%d\n", e[0], e[1])
		}
	case "dot":
		backbone := cnw.StaticBackbone(core.Hop25)
		fmt.Fprint(stdout, nw.G.DOT("manet", backbone.Nodes))
	default:
		return fmt.Errorf("unknown format %q", cfg.format)
	}
	return nil
}

func main() {
	var cfg config
	flag.IntVar(&cfg.n, "n", 50, "number of nodes")
	flag.Float64Var(&cfg.d, "d", 6, "target average node degree")
	flag.Uint64Var(&cfg.seed, "seed", 1, "random seed")
	flag.Float64Var(&cfg.side, "side", 100, "side of the square working space")
	flag.StringVar(&cfg.format, "format", "summary", "output: csv, dot, summary")
	flag.StringVar(&cfg.placement, "placement", "uniform", "node placement: uniform, grid, clustered")
	flag.StringVar(&cfg.save, "save", "", "also write the topology snapshot (JSON) to this file")
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "topogen: %v\n", err)
		os.Exit(1)
	}
}
