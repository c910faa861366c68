package fault

import "testing"

// FuzzParse checks the fault-spec grammar on arbitrary input: Parse never
// panics, and an accepted spec's String() re-parses to an injector with the
// same String() and the same kind flags.
func FuzzParse(f *testing.F) {
	f.Add(roundTripSpec)
	for _, spec := range badSpecs {
		f.Add(spec)
	}
	f.Add("netdrop:rank=1:nth=2,netdup:rank=2,netdelay:rank=0:mean=1ms:jitter=0.5,netpartition:rank=0:peer=1")
	f.Add("kill:rank=3:nth=2,exit:rank=1:code=7,corrupt:rank=2:nth=40:flips=3")
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(spec, 1)
		if err != nil || in == nil {
			return
		}
		again, err := Parse(in.String(), 1)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its String() %q is rejected: %v", spec, in.String(), err)
		}
		if again.String() != in.String() {
			t.Fatalf("String() not a fixed point: %q re-parses to %q", in.String(), again.String())
		}
		if again.HasProcessFaults() != in.HasProcessFaults() || again.HasNetFaults() != in.HasNetFaults() {
			t.Fatalf("re-parsing %q changed the fault kinds", in.String())
		}
	})
}
