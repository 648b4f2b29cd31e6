package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParsePlan parses a compact fault-plan spec of comma-separated
// fields:
//
//	seed=42,disk-read=0.5,corrupt=0.25:2,panic=0.1,slow=0.3:1@5ms,peer=1:99~http://b:1
//
// Each fault field is kind=prob[:times][@delay][~match]: prob is the
// fraction of sites selected (0..1], times the per-site firing budget
// (default 1), @delay the artificial latency for slow faults, and
// ~match a site-substring filter — the rule fires only at sites
// containing it (peer-call sites embed the peer URL, so ~match cuts
// the links to one peer). An empty spec parses to the zero Plan
// (nothing injected).
func ParsePlan(spec string) (Plan, error) {
	p := Plan{Rules: make(map[Kind]Rule)}
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, val, ok := strings.Cut(field, "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault plan: field %q is not name=value", field)
		}
		if name == "seed" {
			seed, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("fault plan: bad seed %q: %v", val, err)
			}
			p.Seed = seed
			continue
		}
		kind, ok := kindByName(name)
		if !ok {
			return Plan{}, fmt.Errorf("fault plan: unknown fault kind %q (valid: %s, seed)",
				name, strings.Join(kindNames[:], ", "))
		}
		rule, err := parseRule(val)
		if err != nil {
			return Plan{}, fmt.Errorf("fault plan: %s: %v", name, err)
		}
		p.Rules[kind] = rule
	}
	return p, nil
}

// parseRule parses prob[:times][@delay][~match].
func parseRule(val string) (Rule, error) {
	var r Rule
	if i := strings.IndexByte(val, '~'); i >= 0 {
		r.Match = val[i+1:]
		if r.Match == "" {
			return Rule{}, fmt.Errorf("empty ~match filter")
		}
		val = val[:i]
	}
	if i := strings.IndexByte(val, '@'); i >= 0 {
		d, err := time.ParseDuration(val[i+1:])
		if err != nil || d < 0 {
			return Rule{}, fmt.Errorf("bad delay %q", val[i+1:])
		}
		r.Delay = d
		val = val[:i]
	}
	if prob, times, ok := strings.Cut(val, ":"); ok {
		n, err := strconv.Atoi(times)
		if err != nil || n < 1 {
			return Rule{}, fmt.Errorf("bad times %q (want a positive integer)", times)
		}
		r.Times = n
		val = prob
	}
	prob, err := strconv.ParseFloat(val, 64)
	if err != nil || !(prob >= 0 && prob <= 1) { // NaN fails both comparisons
		return Rule{}, fmt.Errorf("bad probability %q (want 0..1)", val)
	}
	r.Prob = prob
	return r, nil
}

// String renders the plan back into ParsePlan's spec format, kinds in
// declaration order.
func (p Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "seed=%d", p.Seed)
	for k := Kind(0); k < nKinds; k++ {
		r := p.Rules[k]
		if r.Prob <= 0 {
			continue
		}
		fmt.Fprintf(&sb, ",%s=%g", k, r.Prob)
		if r.Times > 1 {
			fmt.Fprintf(&sb, ":%d", r.Times)
		}
		if r.Delay > 0 {
			fmt.Fprintf(&sb, "@%s", r.Delay)
		}
		if r.Match != "" {
			fmt.Fprintf(&sb, "~%s", r.Match)
		}
	}
	return sb.String()
}

func kindByName(name string) (Kind, bool) {
	for k := Kind(0); k < nKinds; k++ {
		if kindNames[k] == name {
			return k, true
		}
	}
	return 0, false
}
