package faults

import "testing"

// nanSpecs are flag strings whose NaN values once slipped past Validate
// (a NaN fails both < 0 and > 1), after which String dropped some and
// kept others; ParseSpec must reject every non-finite value.
var nanSpecs = []string{
	"loss=NaN",
	"lb=NaN",
	"mtbf=NaN",
	"mttr=NaN",
	"mtbf=10,mttr=NaN",
	"mtbf=+Inf",
	"part=0:5:x:NaN",
}

// FuzzParseSpec checks the -faults grammar on arbitrary input: nothing
// panics, and a spec that parses renders a string that parses back to
// the same rendering.
func FuzzParseSpec(f *testing.F) {
	for _, s := range nanSpecs {
		f.Add(s)
	}
	f.Add("mtbf=200,mttr=50,burst=0.2:8,part=10:40:x:50")
	f.Add("lg=0.05,lb=0.9,pgb=0.01,pbg=0.2,warmup=100,seed=42")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
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
	})
}
