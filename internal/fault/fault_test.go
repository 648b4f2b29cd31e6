package fault

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestInjectorDeterministicSelection pins the headline property: two
// injectors with the same plan make identical decisions for any site
// sequence, regardless of the order sites are probed in.
func TestInjectorDeterministicSelection(t *testing.T) {
	plan := Plan{Seed: 42, Rules: map[Kind]Rule{
		Exec:  {Prob: 0.5},
		Panic: {Prob: 0.3, Times: 2},
	}}
	sites := make([]string, 100)
	for i := range sites {
		sites[i] = fmt.Sprintf("site-%03d", i)
	}

	a, b := NewInjector(plan), NewInjector(plan)
	for _, s := range sites {
		if got, want := a.Fire(Exec, s), b.Fire(Exec, s); got != want {
			t.Fatalf("site %s: injectors disagree", s)
		}
		if a.Fire(Panic, s) != b.Fire(Panic, s) {
			t.Fatalf("site %s: injectors disagree on panic", s)
		}
	}
	if a.Injected(Exec) == 0 || a.Injected(Exec) == 100 {
		t.Fatalf("prob 0.5 selected %d of 100 sites; hash looks degenerate", a.Injected(Exec))
	}
	// Probing the same sites in reverse order on a fresh injector
	// selects the same set (selection is stateless; only budgets are
	// stateful).
	c := NewInjector(plan)
	for i := len(sites) - 1; i >= 0; i-- {
		c.Fire(Exec, sites[i])
	}
	if c.Injected(Exec) != a.Injected(Exec) {
		t.Fatalf("order-dependent selection: %d vs %d", c.Injected(Exec), a.Injected(Exec))
	}
}

// TestInjectorBudgetHealsSites: a selected site fires exactly Times
// times, then heals — the property that keeps injected faults
// recoverable by retries.
func TestInjectorBudgetHealsSites(t *testing.T) {
	in := NewInjector(Plan{Seed: 7, Rules: map[Kind]Rule{Exec: {Prob: 1, Times: 2}}})
	const site = "always-selected"
	for i := 0; i < 2; i++ {
		if !in.Fire(Exec, site) {
			t.Fatalf("fire %d: want true", i)
		}
	}
	for i := 0; i < 5; i++ {
		if in.Fire(Exec, site) {
			t.Fatal("site did not heal after its budget")
		}
	}
	if in.Injected(Exec) != 2 || in.TotalInjected() != 2 {
		t.Fatalf("injected = %d (total %d), want 2", in.Injected(Exec), in.TotalInjected())
	}
}

func TestInjectorSeedChangesSelection(t *testing.T) {
	sel := func(seed uint64) string {
		in := NewInjector(Plan{Seed: seed, Rules: map[Kind]Rule{Exec: {Prob: 0.5}}})
		var sb strings.Builder
		for i := 0; i < 64; i++ {
			if in.Fire(Exec, fmt.Sprintf("s%d", i)) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		return sb.String()
	}
	if sel(1) == sel(2) {
		t.Fatal("different seeds selected identical site sets")
	}
}

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	if in.Fire(Exec, "x") || in.SlowDelay("x") != 0 || in.Injected(Exec) != 0 || in.TotalInjected() != 0 {
		t.Fatal("nil injector fired")
	}
	if NewInjector(Plan{}) != nil {
		t.Fatal("empty plan should build a nil injector")
	}
}

func TestSlowDelayDefaults(t *testing.T) {
	in := NewInjector(Plan{Rules: map[Kind]Rule{Slow: {Prob: 1}}})
	if d := in.SlowDelay("s"); d != time.Millisecond {
		t.Fatalf("default slow delay = %v, want 1ms", d)
	}
	if d := in.SlowDelay("s"); d != 0 {
		t.Fatalf("slow budget not consumed: %v", d)
	}
}

func TestCorruptBytesDefeatJSON(t *testing.T) {
	raw, err := json.Marshal([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	if err := json.Unmarshal(CorruptBytes(raw), &out); err == nil {
		t.Fatal("corrupted bytes still parse")
	}
}

func TestPermanentClassification(t *testing.T) {
	base := errors.New("bad config")
	p := Permanent(base)
	if !IsPermanent(p) {
		t.Fatal("Permanent not detected")
	}
	if !IsPermanent(fmt.Errorf("attempt 1/3: %w", p)) {
		t.Fatal("wrapped Permanent not detected")
	}
	if IsPermanent(base) || IsPermanent(nil) {
		t.Fatal("false positive")
	}
	if !errors.Is(p, base) {
		t.Fatal("Permanent hides the underlying error")
	}
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) != nil")
	}
}

func TestInjectedErrorIdentity(t *testing.T) {
	in := NewInjector(Plan{Rules: map[Kind]Rule{Exec: {Prob: 1}}})
	err := fmt.Errorf("attempt: %w", in.Err(Exec, "k"))
	var inj *Injected
	if !errors.As(err, &inj) || inj.Kind != Exec || inj.Site != "k" {
		t.Fatalf("Injected not recoverable from %v", err)
	}
	if !strings.Contains(err.Error(), "injected exec") {
		t.Fatalf("error text %q", err)
	}
}

// TestRuleMatchFilter pins the site-substring filter partitions are
// built from: a matched rule fires only at sites containing the
// filter, so Prob 1 + Match <peer URL> severs exactly the links to
// that peer and nothing else.
func TestRuleMatchFilter(t *testing.T) {
	in := NewInjector(Plan{Seed: 3, Rules: map[Kind]Rule{
		Peer: {Prob: 1, Times: 1 << 20, Match: "http://b:1"},
	}})
	matched := []string{
		"fetch:http://b:1:fetch:http://b:1:deadbeef",
		"probe:http://b:1:probe:http://b:1",
	}
	unmatched := []string{
		"fetch:http://a:1:fetch:http://a:1:deadbeef",
		"probe:http://c:1:probe:http://c:1",
		"fill:http://a:9:fill:http://a:9:cafe",
	}
	for _, s := range matched {
		if !in.Fire(Peer, s) {
			t.Fatalf("matched site %q did not fire under Prob 1", s)
		}
	}
	for _, s := range unmatched {
		if in.Fire(Peer, s) {
			t.Fatalf("unmatched site %q fired despite the filter", s)
		}
	}
	if got := in.Injected(Peer); got != uint64(len(matched)) {
		t.Fatalf("injected = %d, want %d (matched sites only)", got, len(matched))
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	spec := "seed=42,disk-read=0.5,corrupt=0.25:2,slow=0.3@5ms,peer=1:99~http://b:1"
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || p.Rules[DiskRead].Prob != 0.5 ||
		p.Rules[Corrupt].Times != 2 || p.Rules[Slow].Delay != 5*time.Millisecond {
		t.Fatalf("parsed plan = %+v", p)
	}
	if r := p.Rules[Peer]; r.Prob != 1 || r.Times != 99 || r.Match != "http://b:1" {
		t.Fatalf("parsed peer rule = %+v; ~match did not survive", r)
	}
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("round trip: %v (%q)", err, p.String())
	}
	if p2.String() != p.String() {
		t.Fatalf("round trip diverged: %q vs %q", p2.String(), p.String())
	}
	if empty, err := ParsePlan(" "); err != nil || empty.Enabled() {
		t.Fatalf("empty spec: %+v %v", empty, err)
	}
}

func TestParsePlanRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"nope",
		"unknown-kind=0.5",
		"disk-read=1.5",
		"disk-read=NaN", // would parse, then read as "not enabled" and inject nothing
		"disk-read=x",
		"disk-read=0.5:0",
		"slow=0.5@-3ms",
		"seed=abc",
		"peer=0.5~", // an empty filter would silently match every site

	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("spec %q parsed", spec)
		}
	}
}
