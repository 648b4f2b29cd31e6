package runner

import (
	"testing"

	"catch/internal/cache"
	"catch/internal/config"
	"catch/internal/criticality"
)

// FuzzJobKey builds a job from fuzzed strings, integers and bools and
// requires the one-pass encoder behind Job.Key to write exactly the
// bytes of the reference (json.Marshal, decode, sorted re-encode). The
// fuzzed fields are the config name, LLCPolicy, CritSource, two
// workload names, Insts, Warmup, LLCSize, CritRecord, Inclusive, and
// Sample and Convert each nil or set; shape picks nil, empty, one or
// three workloads. Seeds cover invalid UTF-8, an encoded surrogate
// half, <>&, quotes and backslashes, U+2028 and control bytes.
func FuzzJobKey(f *testing.F) {
	f.Add("catch", "lru", "", "mcf", "hmmer", uint8(2), int64(40_000), int64(8_000), uint64(5632<<10), false, uint8(6), uint8(0), int64(0))
	f.Add("x\xff\xfe", "\x00\x1f<script>", "graph", "bad\xffutf8", "<&>", uint8(3), int64(-1), int64(0), uint64(0), true, uint8(255), uint8(3), int64(1<<62))
	f.Add("\xed\xa0\x80", "line\u2028sep\u2029", "\"\\", "\ufffd", "ctl\x01\n\t\x7f", uint8(1), int64(1), int64(-9), uint64(1<<63), true, uint8(1), uint8(7), int64(-5))
	f.Add("", "", "", "", "", uint8(0), int64(0), int64(0), uint64(0), false, uint8(0), uint8(4), int64(0))
	f.Fuzz(func(t *testing.T, name, policy, crit, w0, w1 string, shape uint8, insts, warmup int64, llcSize uint64, inclusive bool, mask, opts uint8, n int64) {
		j := Job{Config: config.BaselineExclusive(), Insts: insts, Warmup: warmup}
		j.Config.Name, j.Config.LLCPolicy, j.Config.CritSource = name, policy, crit
		j.Config.LLCSize, j.Config.Inclusive = llcSize, inclusive
		j.Config.CritRecord = criticality.LevelMask(mask)
		switch shape % 4 {
		case 1:
			j.Workloads = []string{}
		case 2:
			j.Workloads = []string{w0}
		case 3:
			j.Workloads = []string{w0, w1, w0}
		}
		if opts&1 != 0 {
			j.Sample = &SampleSpec{Interval: n, K: int(mask)}
		}
		if opts&2 != 0 {
			j.Config.Convert = &config.ConvertSpec{From: cache.HitLevel(mask), ToLat: n, OnlyNonCritical: opts&4 != 0}
		}
		checkKeyMatchesReference(t, "fuzzed job", j)
	})
}
