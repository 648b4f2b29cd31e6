// Package fault is the deterministic fault-injection layer for the
// experiment stack. An Injector decides — purely from a seed, a fault
// kind and a site name — whether a fault fires at a given site, so a
// fault schedule is reproducible bit-for-bit regardless of goroutine
// scheduling or wall-clock time: the same (seed, plan) always selects
// the same sites, and per-site budgets make injected failures
// transient so that retries and circuit breakers can recover.
//
// The package also carries the generic resilience primitives the
// runner builds on: a three-state circuit Breaker whose cooldown is
// counted in denied calls rather than seconds, and an exponential
// Backoff whose jitter is seeded rather than random. Neither reads
// the clock or global math/rand — the package is inside catchlint's
// determinism scope and must stay clean.
package fault

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"catch/internal/stats"
)

// Kind classifies an injectable fault.
type Kind uint8

// The fault taxonomy. Disk kinds are injected by InjectFS around the
// result cache's filesystem; the job kinds are injected by the engine
// around one simulation attempt.
const (
	// DiskRead makes a cache disk read fail with an I/O error.
	DiskRead Kind = iota
	// DiskWrite makes a cache disk write or rename fail.
	DiskWrite
	// Corrupt returns garbled bytes from a cache disk read.
	Corrupt
	// Panic makes a job execution attempt panic.
	Panic
	// Slow delays a job execution attempt by the rule's Delay.
	Slow
	// Hang blocks a job execution attempt until its context ends.
	Hang
	// Exec fails a job execution attempt with a transient error.
	Exec
	// Peer makes a cluster peer call (result fetch, shard dispatch,
	// replica fill, manifest) fail with a transient error, so the
	// chaos suite can prove the ring reroutes and the tiered read path
	// degrades to local compute.
	Peer

	nKinds
)

var kindNames = [nKinds]string{
	DiskRead:  "disk-read",
	DiskWrite: "disk-write",
	Corrupt:   "corrupt",
	Panic:     "panic",
	Slow:      "slow",
	Hang:      "hang",
	Exec:      "exec",
	Peer:      "peer",
}

func (k Kind) String() string {
	if k < nKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Kinds returns every fault kind in declaration order (for metric
// registration and plan rendering).
func Kinds() []Kind {
	out := make([]Kind, 0, nKinds)
	for k := Kind(0); k < nKinds; k++ {
		out = append(out, k)
	}
	return out
}

// Rule configures one fault kind within a Plan.
type Rule struct {
	// Prob is the fraction of sites the rule selects, in [0, 1].
	// Selection is a pure function of (seed, kind, site), so the same
	// site is selected in every run with the same plan.
	Prob float64
	// Times bounds how often the fault fires per selected site before
	// the site heals; 0 means once. A bounded budget keeps injected
	// failures transient, so a retried job eventually succeeds.
	Times int
	// Delay is the artificial latency for Slow rules (default 1ms).
	Delay time.Duration
	// Match, when non-empty, restricts the rule to sites containing the
	// substring. Peer-call sites embed the target peer's URL, so a
	// matched Peer rule severs exactly the links to one peer — the
	// building block partition chaos tests cut a cluster with
	// (Prob 1 + Match "http://b:1" fails every call to b and nothing
	// else, deterministically).
	Match string
}

// Plan is a seeded fault schedule: at most one rule per kind.
type Plan struct {
	Seed  uint64
	Rules map[Kind]Rule
}

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool {
	for k := Kind(0); k < nKinds; k++ {
		if p.Rules[k].Prob > 0 {
			return true
		}
	}
	return false
}

// Injected is the error carried by every injected fault. It never
// wraps a real failure — errors.As against *Injected identifies
// synthetic errors in tests and logs.
type Injected struct {
	Kind Kind
	Site string
}

func (e *Injected) Error() string {
	return "fault: injected " + e.Kind.String() + " at " + e.Site
}

// permanentError marks an error as non-retryable.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so IsPermanent reports true: retrying can never
// fix it (structural config errors, unknown names). A nil err stays
// nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// with Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// siteKey identifies one (kind, site) budget bucket.
type siteKey struct {
	kind Kind
	site string
}

// Injector executes a Plan. All methods are safe for concurrent use
// and nil-safe: a nil *Injector never fires, so fault-free builds pay
// one pointer test per site.
type Injector struct {
	seed  uint64
	rules [nKinds]Rule

	mu    sync.Mutex
	fired map[siteKey]int

	injected [nKinds]stats.AtomicCounter
}

// NewInjector builds an injector for plan. A plan that injects
// nothing returns nil, which every call site treats as "faults off".
func NewInjector(plan Plan) *Injector {
	if !plan.Enabled() {
		return nil
	}
	in := &Injector{seed: plan.Seed, fired: make(map[siteKey]int)}
	for k := Kind(0); k < nKinds; k++ {
		r := plan.Rules[k]
		if r.Times <= 0 {
			r.Times = 1
		}
		if k == Slow && r.Prob > 0 && r.Delay <= 0 {
			r.Delay = time.Millisecond
		}
		in.rules[k] = r
	}
	return in
}

// Fire reports whether a kind-fault fires at site, consuming one unit
// of the site's budget when it does. Site selection is deterministic
// (a hash of seed, kind and site); only the budget bookkeeping is
// stateful, so concurrent callers agree on which sites fail and only
// race on who observes the last budgeted firing.
func (in *Injector) Fire(kind Kind, site string) bool {
	if in == nil {
		return false
	}
	r := in.rules[kind]
	if r.Prob <= 0 || !selected(in.seed, kind, site, r.Prob) {
		return false
	}
	if r.Match != "" && !strings.Contains(site, r.Match) {
		return false
	}
	k := siteKey{kind, site}
	in.mu.Lock()
	n := in.fired[k]
	if n >= r.Times {
		in.mu.Unlock()
		return false
	}
	in.fired[k] = n + 1
	in.mu.Unlock()
	in.injected[kind].Inc()
	return true
}

// SlowDelay returns the artificial latency to add before executing
// site (0 when the Slow rule does not fire).
func (in *Injector) SlowDelay(site string) time.Duration {
	if in == nil || !in.Fire(Slow, site) {
		return 0
	}
	return in.rules[Slow].Delay
}

// Err builds the canonical error for a kind-fault at site.
func (in *Injector) Err(kind Kind, site string) error {
	return &Injected{Kind: kind, Site: site}
}

// Injected returns how many kind-faults have fired so far.
func (in *Injector) Injected(kind Kind) uint64 {
	if in == nil {
		return 0
	}
	return in.injected[kind].Value()
}

// TotalInjected sums the fired faults across all kinds.
func (in *Injector) TotalInjected() uint64 {
	if in == nil {
		return 0
	}
	var total uint64
	for k := Kind(0); k < nKinds; k++ {
		total += in.injected[k].Value()
	}
	return total
}

// CorruptBytes garbles a disk entry so every structured decoder
// rejects it: the payload is replaced by an unterminated JSON prefix
// plus a NUL, keeping a recognizable marker for humans reading the
// quarantined file.
func CorruptBytes(data []byte) []byte {
	garbled := make([]byte, 0, len(data)+16)
	garbled = append(garbled, []byte("{\x00fault-corrupt ")...)
	if len(data) > 8 {
		data = data[:8]
	}
	return append(garbled, data...)
}

// selected hashes (seed, kind, site) into [0,1) and compares with
// prob. splitmix64 over an FNV-1a digest of the site keeps the
// selection well-mixed for near-identical site names.
func selected(seed uint64, kind Kind, site string, prob float64) bool {
	if prob >= 1 {
		return true
	}
	h := mix(seed^(0x9E3779B97F4A7C15*uint64(kind+1)), site)
	return float64(h>>11)/float64(1<<53) < prob
}

// mix combines seed and site into a well-distributed 64-bit hash.
func mix(seed uint64, site string) uint64 {
	h := uint64(14695981039346656037) ^ seed
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}
