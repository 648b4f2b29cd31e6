package fault

import "time"

// Backoff computes exponential retry delays with deterministic seeded
// jitter: the delay before retry n of a site is Base·2^(n-1), capped
// at Max, scaled into [50%, 100%] by a hash of (Seed, site, n). Two
// runs with the same seed sleep the same schedule, so retry timing
// never becomes a hidden source of nondeterminism — the package never
// touches the clock or math/rand.
//
// The zero value disables backoff: every delay is 0 (immediate
// retries, the engine's historical behaviour).
type Backoff struct {
	// Base is the first retry's nominal delay; <=0 disables backoff.
	Base time.Duration
	// Max caps one delay; <=0 means 32×Base.
	Max time.Duration
	// Seed drives the jitter hash.
	Seed uint64
}

// Delay returns the pause before retry attempt (attempt >= 1) of site.
func (b Backoff) Delay(site string, attempt int) time.Duration {
	if b.Base <= 0 || attempt < 1 {
		return 0
	}
	max := b.Max
	if max <= 0 {
		max = 32 * b.Base
	}
	d := b.Base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= max || d <= 0 { // d<=0 guards duration overflow
			d = max
			break
		}
	}
	if d > max {
		d = max
	}
	// Jitter into [0.5, 1.0)·d, deterministically per (seed, site, n).
	h := mix(b.Seed+uint64(attempt)*0x9E3779B97F4A7C15, site)
	frac := 0.5 + 0.5*float64(h>>11)/float64(1<<53)
	return time.Duration(float64(d) * frac)
}
