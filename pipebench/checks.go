package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"clustercast/internal/cluster"
	"clustercast/internal/graph"
)

// outcome is one op's result: a digest of every result value the op
// produced, and the checks that failed.
type outcome struct {
	h     hash.Hash
	fails []string
}

func newOutcome() outcome { return outcome{h: sha256.New()} }

// record adds result values to the op's digest.
func (o *outcome) record(format string, args ...any) { fmt.Fprintf(o.h, format, args...) }

func (o *outcome) fail(format string, args ...any) {
	o.fails = append(o.fails, fmt.Sprintf(format, args...))
}

// digest is the first 16 hex digits of the SHA-256 of the recorded values.
func (o *outcome) digest() string { return hex.EncodeToString(o.h.Sum(nil)[:8]) }

// The checks below run aside, outside the measured op.

// checkClustering asserts that the clusterheads form an independent
// dominating set and every member is adjacent to its head.
func checkClustering(tr *tracer, o *outcome, what string, g *graph.Graph, cl *cluster.Clustering) {
	tr.aside("", func() {
		if err := cl.Validate(g); err != nil {
			o.fail("%s: clustering: %v", what, err)
		}
	})
}

// checkCDS asserts Theorem 1 for a backbone: it is a connected dominating
// set of size want.
func checkCDS(tr *tracer, o *outcome, what string, g *graph.Graph, set *graph.Bitset, want int) {
	tr.aside("", func() {
		if got := set.Count(); got != want {
			o.fail("%s: backbone has %d nodes, the size call said %d", what, got, want)
		}
		if !g.IsCDSBits(set) {
			o.fail("%s: backbone is not a connected dominating set", what)
		}
	})
}

// checkDelivered asserts full delivery of an ideal-radio broadcast over a
// connected dominating set (Theorem 2 for the dynamic backbone).
func checkDelivered(o *outcome, what string, received, n int) {
	if received != n {
		o.fail("%s: ideal-radio broadcast reached %d of %d nodes", what, received, n)
	}
}

// checkSame fails when a twin run disagrees with the production call.
func checkSame(o *outcome, what string, got, want any) {
	if fmt.Sprint(got) != fmt.Sprint(want) {
		o.fail("%s: twin gave %v, production call gave %v", what, got, want)
	}
}
