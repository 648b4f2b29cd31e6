package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"catch/internal/runner"
)

// Server is the cluster's HTTP layer. It mounts the cluster routes and
// overrides the sweep and results endpoints with cluster-aware
// versions; everything else falls through to the single-node runner
// handler:
//
//	GET  /v1/cluster/status   ring membership, tiers, peers, health
//	GET  /v1/cluster/manifest cached result keys, for reconcile
//	POST /v1/cluster/shard    execute one sweep shard (cluster-internal)
//	POST /v1/cluster/fill     store a replica copy (cluster-internal)
//	POST /v1/sweep            sweep sharded across the ring
//	GET  /v1/results/{key}    tiered lookup + RFC-9111 cache semantics
type Server struct {
	Node    *Node
	Resolve runner.ConfigResolver
	// Inner serves every route the cluster layer does not override
	// (run, drain, healthz, metrics, pprof).
	Inner http.Handler
	// ResultMaxAge is the Cache-Control max-age for results (<=0:
	// runner.DefaultResultMaxAge).
	ResultMaxAge time.Duration
	// Version is echoed in /v1/cluster/status.
	Version string
}

// StatusDoc is the /v1/cluster/status response.
type StatusDoc struct {
	Self     string      `json:"self"`
	Members  []string    `json:"members"`
	VNodes   int         `json:"vnodes"`
	Replicas int         `json:"replicas"` // effective replication factor
	Version  string      `json:"version,omitempty"`
	Tiers    []TierStats `json:"tiers"`
	Peers    []PeerState `json:"peers"`
	// Health is this node's failure-detector view of every peer.
	Health []MemberHealthDoc `json:"health,omitempty"`
	// Unreplicated is the number of locally cached keys whose replica
	// set includes a suspect or down member — results this node serves
	// correctly but that currently live below their replication factor
	// (the number a minority partition watches fall to zero after heal).
	Unreplicated int `json:"unreplicated"`
	// Replication traffic counters: copies pushed on completion,
	// copies accepted from peers, copies pushed to a peer on its return
	// to live, and copies pushed by anti-entropy repair.
	ReplicaFills  uint64 `json:"replicaFills,omitempty"`
	ReplicasIn    uint64 `json:"replicasIn,omitempty"`
	HintsDrained  uint64 `json:"hintsDrained,omitempty"`
	RepairFills   uint64 `json:"repairFills,omitempty"`
	ProbeFailures uint64 `json:"probeFailures,omitempty"`
}

// PeerState is one ring member's view from this node.
type PeerState struct {
	Peer    string `json:"peer"`
	Self    bool   `json:"self,omitempty"`
	Breaker string `json:"breaker,omitempty"`
}

// shardRequest is the cluster-internal body of POST /v1/cluster/shard.
type shardRequest struct {
	Jobs []runner.Job `json:"jobs"`
}

// shardResponse carries the shard's per-job results in request order.
type shardResponse struct {
	Jobs []runner.JobResult `json:"jobs"`
}

// pingDoc answers the failure detector's probe.
type pingDoc struct {
	Self string `json:"self"`
}

// manifestDoc lists every result key this node holds (memory and
// disk), for reconcile diffs.
type manifestDoc struct {
	Self string   `json:"self"`
	Keys []string `json:"keys"`
}

// Handler builds the route table. The cluster routes shadow the inner
// handler's; unmatched requests delegate.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/status", s.handleStatus)
	mux.HandleFunc("GET /v1/cluster/ping", s.handlePing)
	mux.HandleFunc("GET /v1/cluster/manifest", s.handleManifest)
	mux.HandleFunc("POST /v1/cluster/shard", s.handleShard)
	mux.HandleFunc("POST /v1/cluster/fill", s.handleFill)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	if s.Inner != nil {
		mux.Handle("/", s.Inner)
	}
	return mux
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	n := s.Node
	runner.WriteJSON(w, http.StatusOK, StatusDoc{
		Self:          n.Self(),
		Members:       n.Ring().Members(),
		VNodes:        n.Ring().VNodes(),
		Replicas:      n.Replicas(),
		Version:       s.Version,
		Tiers:         n.TierStats(),
		Peers:         n.peerStates(),
		Health:        n.health.snapshot(),
		Unreplicated:  n.unreplicated(),
		ReplicaFills:  n.mReplicaFills.Value(),
		ReplicasIn:    n.mReplicasIn.Value(),
		HintsDrained:  n.mHintsDrained.Value(),
		RepairFills:   n.mRepairFills.Value(),
		ProbeFailures: n.mProbeFails.Value(),
	})
}

// handlePing answers the failure detector: a 200 means "up", nothing
// more. The body names the node so a misconfigured peer list shows
// itself in probes.
func (s *Server) handlePing(w http.ResponseWriter, r *http.Request) {
	runner.WriteJSON(w, http.StatusOK, pingDoc{Self: s.Node.Self()})
}

// handleManifest lists this node's cached result keys for reconcile.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	runner.WriteJSON(w, http.StatusOK, manifestDoc{
		Self: s.Node.Self(),
		Keys: s.Node.opts.Engine.Cache().Keys(),
	})
}

// handleResult is the tiered, HTTP-semantic results endpoint: validate
// the key shape (400), walk local memory → local disk → replica peers
// (404 when nowhere), and serve with a strong ETag, Cache-Control and
// conditional-request handling. Cluster-internal requests restrict the
// walk to local levels so peers never chase each other in a cycle.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !runner.ValidKey(key) {
		runner.WriteJSON(w, http.StatusBadRequest, runner.ErrorBody{Error: "malformed result key (want 16-64 lowercase hex digits): " + key})
		return
	}
	localOnly := r.Header.Get(localOnlyHeader) != ""
	rs, tier, ok := s.Node.Lookup(r.Context(), key, localOnly)
	if !ok {
		runner.WriteJSON(w, http.StatusNotFound, runner.ErrorBody{Error: "no cached result for key " + key})
		return
	}
	w.Header().Set("X-Catch-Tier", tier)
	runner.ServeResult(w, r, key, runner.ResultsDoc{Key: key, Results: rs}, s.ResultMaxAge)
}

// handleShard executes one sweep shard on the local engine.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	jobs, err := decodeShard(r.Body, s.Resolve)
	if err != nil {
		runner.WriteJSON(w, http.StatusBadRequest, runner.ErrorBody{Error: err.Error()})
		return
	}
	s.Node.mShardsIn.Inc()
	out := s.Node.ExecuteShard(r.Context(), jobs)
	runner.WriteJSON(w, http.StatusOK, shardResponse{Jobs: out})
}

// maxShardBody caps a POST /v1/cluster/shard body. A shard holds some
// of one sweep's jobs, and a sweep at most every registered config
// times every workload: 770 jobs, under 850 KB as JSON even at the
// widest budgets (TestLargestBodiesFitCaps). The cap leaves room for
// the registry to double.
const maxShardBody = 2 << 20

// maxJobResultBody bounds one job's share of a POST /v1/cluster/shard
// reply, which may hold len(jobs) times as much. The widest legitimate
// job result, a job of the widest registered config on maxFillResults
// cores, their results with every number at its widest and a 100-frame
// panic stack, is about 46 KB (TestLargestBodiesFitCaps). The cap
// holds it twice.
const maxJobResultBody = 128 << 10

// maxFillResults bounds the results of one job, and so of a fill or a
// results-API document: one result per core, and a job runs at most
// one core per ring stop. Every registered config has 8 ring stops
// (TestRegisteredConfigsFitFillBound).
const maxFillResults = 8

// maxFillBody caps a POST /v1/cluster/fill body and a GET
// /v1/results/{key} reply. A result is about 2 KB as JSON, and 4.3 KB
// with every number at its widest, so the largest legitimate document,
// maxFillResults results, is under 36 KB.
const maxFillBody = 64 << 10

// maxManifestBody caps a GET /v1/cluster/manifest reply. A key takes
// at most 67 bytes of the list (64 hex digits, quotes and a comma), so
// the cap holds a million keys, about 2 GB of cached results.
const maxManifestBody = 64 << 20

// The decoders of every body one node takes from another. Each accepts
// exactly what json.Marshal (or runner.WriteJSON) writes for its type
// on this build, so a peer whose types differ, another core.Result
// layout say, has its bodies refused, as a foreign disk entry is.
var (
	resultsDocDecoder   = runner.NewDecoder[runner.ResultsDoc]()
	shardRequestDecoder = runner.NewDecoder[shardRequest]()
	shardReplyDecoder   = runner.NewDecoder[shardResponse]()
	manifestDecoder     = runner.NewDecoder[manifestDoc]()
)

// readDoc reads a body one node took from another whole and decodes
// it with dec. A body over limit bytes is refused before any of it is
// decoded.
func readDoc[T any](body io.Reader, limit int64, dec runner.Decoder[T]) (T, error) {
	var v T
	raw, err := io.ReadAll(io.LimitReader(body, limit+1))
	switch {
	case err != nil:
	case int64(len(raw)) > limit:
		err = fmt.Errorf("body over %d bytes", limit)
	default:
		v, err = dec.Decode(raw)
	}
	return v, err
}

// decodeShard reads a POST /v1/cluster/shard body and checks every job
// before anything runs: the body fits maxShardBody, there is at least
// one job, each passes Validate, and each carries exactly the config
// its name resolves to. A shard is the one body that carries a whole
// SystemConfig, and a foreign one could ask NewSystem for arrays of
// any size. It returns no jobs with an error.
func decodeShard(body io.Reader, resolve runner.ConfigResolver) ([]runner.Job, error) {
	req, err := readDoc(body, maxShardBody, shardRequestDecoder)
	if err != nil {
		return nil, fmt.Errorf("bad request body: %v", err)
	}
	if len(req.Jobs) == 0 {
		return nil, errors.New("shard needs at least one job")
	}
	for i := range req.Jobs {
		j := &req.Jobs[i]
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("shard job %d: %v", i, err)
		}
		cfg, ok := resolve(j.Config.Name)
		if !ok {
			return nil, fmt.Errorf("shard job %d: unknown config %q", i, j.Config.Name)
		}
		registered := *j
		registered.Config = cfg
		if registered.Key() != j.Key() {
			return nil, fmt.Errorf("shard job %d: config %q differs from this node's registered config of that name", i, j.Config.Name)
		}
	}
	return req.Jobs, nil
}

// decodeFill reads a POST /v1/cluster/fill body, as Client.ReplicaFill
// writes it.
func decodeFill(body io.Reader) (runner.ResultsDoc, error) {
	doc, err := readDoc(body, maxFillBody, resultsDocDecoder)
	if err != nil {
		return runner.ResultsDoc{}, fmt.Errorf("bad request body: %v", err)
	}
	return doc, nil
}

func (s *Server) handleFill(w http.ResponseWriter, r *http.Request) {
	doc, err := decodeFill(r.Body)
	if err == nil {
		err = s.Node.HandleFill(doc.Key, doc.Results)
	}
	if err != nil {
		runner.WriteJSON(w, http.StatusBadRequest, runner.ErrorBody{Error: err.Error()})
		return
	}
	runner.WriteJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleSweep is the cluster-aware sweep: the grid expands exactly as
// on a single node, then jobs shard across the ring by owner.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req runner.SweepRequest
	if err := runner.DecodeBody(w, r.Body, runner.MaxRequestBody, &req); err != nil {
		runner.WriteJSON(w, http.StatusBadRequest, runner.ErrorBody{Error: err.Error()})
		return
	}
	jobs, err := req.Jobs(s.Resolve)
	if err != nil {
		runner.WriteJSON(w, http.StatusBadRequest, runner.ErrorBody{Error: err.Error()})
		return
	}
	//catchlint:ignore determinism sweep wall-clock is response metadata, never simulation output
	start := time.Now()
	out := s.Node.RunSweep(r.Context(), jobs, nil)
	canceled := 0
	for i := range out {
		if out[i].Status == runner.StatusCanceled {
			canceled++
		}
	}
	runner.WriteJSON(w, http.StatusOK, map[string]any{
		"jobs":     out,
		"canceled": canceled,
		//catchlint:ignore determinism sweep wall-clock is response metadata, never simulation output
		"elapsedMs": time.Since(start).Milliseconds(),
		"cluster": map[string]any{
			"self":    s.Node.Self(),
			"members": s.Node.Ring().Members(),
		},
		"tiers": s.Node.TierStats(),
	})
}
