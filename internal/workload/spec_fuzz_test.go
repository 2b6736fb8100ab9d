package workload

import (
	"strings"
	"testing"
)

// overflowSpecs are flag strings that once parsed into specs whose flows
// started at negative slots (rate=NaN, a rate so small the first arrival
// overflows the slot clock, a burst period that wraps it) or all at slot
// 0 (rate=+Inf). ParseSpec or Generate must refuse each.
var overflowSpecs = []string{
	"rate=NaN",
	"rate=+Inf",
	"rate=1e-20",
	"proc=bursty,burst=1,every=9223372036854775807,flows=3",
}

// FuzzParseSpec checks the -traffic grammar on arbitrary input: nothing
// panics; a spec that parses renders a string that parses back to the
// same rendering; and generating a small network's flows either fails
// or yields Start slots that are non-negative and nondecreasing.
func FuzzParseSpec(f *testing.F) {
	for _, s := range overflowSpecs {
		f.Add(s, uint8(5))
	}
	f.Add("proc=poisson,rate=0.2,flows=32", uint8(8))
	f.Add("proc=bursty,burst=4,every=10,flows=40,discovery=1,fanout=3,seed=9", uint8(1))
	f.Add("", uint8(3))
	f.Fuzz(func(t *testing.T, in string, n uint8) {
		spec, err := ParseSpec(in)
		if err != nil {
			return
		}
		out := spec.String()
		again, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %q, which does not parse: %v", in, out, err)
		}
		if again.String() != out {
			t.Fatalf("ParseSpec(%q) renders %q, re-parsed renders %q", in, out, again.String())
		}
		if spec.Flows > 4096 || strings.Count(in, ",") > 64 {
			return // keep the generator's output small
		}
		flows, err := spec.Generate(int(n%16) + 1)
		if err != nil {
			return
		}
		for i, fl := range flows {
			if fl.Start < 0 || (i > 0 && fl.Start < flows[i-1].Start) {
				t.Fatalf("ParseSpec(%q): flow %d starts at slot %d after %d", in, i, fl.Start, flows[max(i-1, 0)].Start)
			}
		}
	})
}
