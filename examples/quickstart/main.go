// Quickstart: generate a MANET, build the paper's backbones, and compare
// one broadcast over each.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"clustercast/internal/core"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the walkthrough to w.
func run(w io.Writer) error {
	// A 100-node network in a 100×100 area with average degree 18 — the
	// paper's dense scenario.
	nw, err := core.NewRandomNetwork(core.NetworkSpec{N: 100, AvgDegree: 18, Seed: 42})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "network:", nw.Summarize())
	fmt.Fprintf(w, "clusterheads: %v\n\n", nw.Heads())

	// The static backbone (cluster-based SI-CDS) is built once and serves
	// any broadcast: every backbone node forwards.
	static := nw.StaticBackbone(core.Hop25)
	fmt.Fprintf(w, "static backbone (2.5-hop): %d nodes (%d heads + %d gateways)\n",
		static.Size(), len(static.Heads), static.GatewayCount())

	const source = 0
	sres := nw.BroadcastStatic(static, source)
	fmt.Fprintf(w, "  broadcast from %d: %d forwards, %.0f%% delivery, latency %d\n",
		source, sres.ForwardCount(), 100*sres.DeliveryRatio(nw.N()), sres.Latency)

	// The dynamic backbone (cluster-based SD-CDS) selects gateways on
	// demand while the packet travels, pruning redundant branches.
	dres := nw.DynamicBroadcast(core.Hop25, source)
	fmt.Fprintf(w, "dynamic backbone (2.5-hop):\n  broadcast from %d: %d forwards, %.0f%% delivery, latency %d\n",
		source, dres.ForwardCount(), 100*dres.DeliveryRatio(nw.N()), dres.Latency)

	// Blind flooding, for scale: every node forwards.
	fres := nw.Flood(source)
	fmt.Fprintf(w, "flooding:\n  broadcast from %d: %d forwards\n", source, fres.ForwardCount())

	saved := fres.ForwardCount() - dres.ForwardCount()
	fmt.Fprintf(w, "\nthe dynamic backbone saved %d of %d transmissions (%.0f%%)\n",
		saved, fres.ForwardCount(), 100*float64(saved)/float64(fres.ForwardCount()))
	return nil
}
