package fault

import "testing"

// FuzzParsePlan feeds arbitrary specs to the fault-plan parser. It must
// never panic, every rule it accepts must carry a probability in
// [0,1], and String() of an accepted plan must parse back and
// re-render byte-identically — the rendered plan is what catchd logs
// in chaos mode, and pasting it back must reproduce the schedule.
// Seeds are the round-trip and rejection cases of the unit tests.
func FuzzParsePlan(f *testing.F) {
	for _, spec := range []string{
		"",
		"seed=42,disk-read=0.5,corrupt=0.25:2,slow=0.3@5ms,peer=1:99~http://b:1",
		"seed=1,disk-read=0.5:2,slow=0.1@2ms",
		"seed=42,disk-read=1:999,disk-write=1:999",
		"peer=1~a~b@c:d",
		"disk-read=-0,disk-write=1e-400,slow=1:1@0s",
		"disk-read=NaN",
		"disk-read=1.5",
		"disk-read=0.5:0",
		"slow=0.5@-3ms",
		"peer=0.5~",
		"seed=abc",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		for k, r := range p.Rules {
			if !(r.Prob >= 0 && r.Prob <= 1) {
				t.Fatalf("%q: accepted %s probability %v", spec, k, r.Prob)
			}
		}
		s := p.String()
		again, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", spec, s, err)
		}
		if s2 := again.String(); s2 != s {
			t.Fatalf("%q renders as %q, which re-renders as %q", spec, s, s2)
		}
	})
}
