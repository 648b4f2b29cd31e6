package runner

import (
	"bytes"
	"io"
	"testing"

	"catch/internal/workloads"
)

// FuzzSweepRequest feeds arbitrary bytes to the POST /v1/sweep body
// decoder and the sweep expansion, exactly as both servers run them. It
// must never panic; an accepted body must fit MaxRequestBody, and
// padded with spaces past it must be rejected; an accepted request must
// expand to at most (names testResolve knows) × len(workloads.All())
// jobs, so the grid is bounded by the registries and not by the body
// size; and every job it yields must pass Validate. Seeds are a valid sweep, a defaulted one
// with a field the decoder ignores, and the repeated-config and
// unknown-workload bodies the servers reject.
func FuzzSweepRequest(f *testing.F) {
	for _, body := range []string{
		`{"configs":["baseline-excl","catch"],"workloads":["mcf","hmmer"],"insts":5000,"warmup":1000}`,
		`{"configs":["catch"],"insts":-1,"warmup":-5,"unknown":true}`,
		`{"configs":["catch","catch"],"workloads":["mcf"]}`,
		`{"configs":["catch"],"workloads":["nosuch"]}`,
	} {
		f.Add([]byte(body))
	}
	const known = 2 // testResolve knows baseline-excl and catch
	maxJobs := known * len(workloads.All())
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		if DecodeBody(nil, io.NopCloser(bytes.NewReader(body)), MaxRequestBody, &req) != nil {
			return
		}
		if len(body) > MaxRequestBody {
			t.Fatalf("accepted a %d-byte body, over the %d-byte cap", len(body), MaxRequestBody)
		}
		if DecodeBody(nil, io.NopCloser(bytes.NewReader(padPast(body, MaxRequestBody))), MaxRequestBody, &SweepRequest{}) == nil {
			t.Fatalf("%q padded past the cap was accepted", body)
		}
		jobs, err := req.Jobs(testResolve)
		if err != nil {
			return
		}
		if len(jobs) > maxJobs {
			t.Fatalf("%q expanded to %d jobs, want at most %d", body, len(jobs), maxJobs)
		}
		for i := range jobs {
			if err := jobs[i].Validate(); err != nil {
				t.Fatalf("%q: job %d does not validate: %v", body, i, err)
			}
		}
	})
}
