package runner

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzRunRequest feeds arbitrary bytes to the POST /v1/run body
// decoder and the request-to-job conversion, exactly as handleRun runs
// them. It must never panic. An accepted body must fit MaxRequestBody,
// and padded with spaces past it must be rejected. An accepted job
// must pass Validate, run between 1 and its config's ring stops
// workloads, and carry positive Insts and non-negative Warmup. Seeds
// are a 1,000-name body (far wider than any ring), a body setting both
// workload and workloads, and an unknown config.
func FuzzRunRequest(f *testing.F) {
	wide := `{"config":"catch","workloads":[` + strings.Repeat(`"mcf",`, 999) + `"mcf"],"insts":1,"warmup":-1}`
	for _, body := range []string{
		wide,
		`{"config":"baseline-excl","workload":"mcf","workloads":["hmmer"]}`,
		`{"config":"no-such-config","workload":"mcf","insts":5000,"warmup":1000}`,
	} {
		f.Add([]byte(body))
	}
	s := &Server{Resolve: testResolve}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		if DecodeBody(nil, io.NopCloser(bytes.NewReader(body)), MaxRequestBody, &req) != nil {
			return
		}
		if len(body) > MaxRequestBody {
			t.Fatalf("accepted a %d-byte body, over the %d-byte cap", len(body), MaxRequestBody)
		}
		if DecodeBody(nil, io.NopCloser(bytes.NewReader(padPast(body, MaxRequestBody))), MaxRequestBody, &RunRequest{}) == nil {
			t.Fatalf("%.120q padded past the cap was accepted", body)
		}
		job, err := s.jobFrom(&req)
		if err != nil {
			return
		}
		if err := job.Validate(); err != nil {
			t.Fatalf("%.120q: accepted job does not validate: %v", body, err)
		}
		if n := len(job.Workloads); n < 1 || n > job.Config.RingStops {
			t.Fatalf("%.120q: accepted %d workloads on %d ring stops", body, n, job.Config.RingStops)
		}
		if job.Insts <= 0 || job.Warmup < 0 {
			t.Fatalf("%.120q: accepted insts %d, warmup %d", body, job.Insts, job.Warmup)
		}
	})
}
