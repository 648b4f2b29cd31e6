package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"catch/internal/core"
	"catch/internal/runner"
	"catch/internal/workloads"
)

// Server is the cluster's HTTP layer. It mounts the cluster routes and
// overrides the sweep and results endpoints with cluster-aware
// versions; everything else falls through to the single-node runner
// handler:
//
//	GET  /v1/cluster/status   ring membership, tiers, queue, peers
//	GET  /v1/cluster/manifest cached result keys, for reconcile
//	POST /v1/cluster/shard    execute one sweep shard (cluster-internal)
//	POST /v1/cluster/steal    hand over pending queue tail (internal)
//	POST /v1/cluster/fill     return a stolen job's results (internal)
//	POST /v1/sweep            sweep sharded across the ring
//	GET  /v1/results/{key}    tiered lookup + RFC-9111 cache semantics
type Server struct {
	Node    *Node
	Resolve runner.ConfigResolver
	// Inner serves every route the cluster layer does not override
	// (run, drain, healthz, metrics, pprof).
	Inner http.Handler
	// JournalDir enables resumable shards, exactly as on the runner
	// server; shard journals are content-addressed per shard.
	JournalDir string
	// ResultMaxAge is the Cache-Control max-age for results (<=0:
	// runner.DefaultResultMaxAge).
	ResultMaxAge time.Duration
	// Version is echoed in /v1/cluster/status.
	Version string
}

// StatusDoc is the /v1/cluster/status response.
type StatusDoc struct {
	Self      string      `json:"self"`
	Members   []string    `json:"members"`
	VNodes    int         `json:"vnodes"`
	Replicas  int         `json:"replicas"` // effective replication factor
	Version   string      `json:"version,omitempty"`
	QueueLen  int         `json:"queueLen"`
	Lent      int         `json:"lent"`
	Stolen    int         `json:"stolen"`    // jobs peers stole from this node
	Reclaimed int         `json:"reclaimed"` // lent jobs reclaimed locally
	Tiers     []TierStats `json:"tiers"`
	Peers     []PeerState `json:"peers"`
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
	Jobs      []runner.Job `json:"jobs"`
	Resumable bool         `json:"resumable,omitempty"`
}

// shardResponse carries the shard's per-job results in request order.
type shardResponse struct {
	Jobs []runner.JobResult `json:"jobs"`
}

// stealRequest asks for up to Max pending jobs from the queue tail.
type stealRequest struct {
	Max int `json:"max"`
}

// stealResponse hands over the stolen jobs.
type stealResponse struct {
	Jobs []runner.Job `json:"jobs"`
}

// fillRequest returns a stolen job's results to its owner (Replica
// false) or pushes a replica copy to a member of the key's replica set
// (Replica true). The flag is what keeps replication loop-free: only
// authoritative fills fan out again.
type fillRequest struct {
	Key     string        `json:"key"`
	Results []core.Result `json:"results"`
	Replica bool          `json:"replica,omitempty"`
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

type errorBody struct {
	Error string `json:"error"`
}

// Handler builds the route table. The cluster routes shadow the inner
// handler's; unmatched requests delegate.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/status", s.handleStatus)
	mux.HandleFunc("GET /v1/cluster/ping", s.handlePing)
	mux.HandleFunc("GET /v1/cluster/manifest", s.handleManifest)
	mux.HandleFunc("POST /v1/cluster/shard", s.handleShard)
	mux.HandleFunc("POST /v1/cluster/steal", s.handleSteal)
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
	stolen, reclaimed := n.queue.counters()
	writeJSON(w, http.StatusOK, StatusDoc{
		Self:          n.Self(),
		Members:       n.Ring().Members(),
		VNodes:        n.Ring().VNodes(),
		Replicas:      n.Replicas(),
		Version:       s.Version,
		QueueLen:      n.queue.queueLen(),
		Lent:          n.queue.lentCount(),
		Stolen:        stolen,
		Reclaimed:     reclaimed,
		Tiers:         n.Tiers().Stats(),
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
	writeJSON(w, http.StatusOK, pingDoc{Self: s.Node.Self()})
}

// handleManifest lists this node's cached result keys for reconcile.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, manifestDoc{
		Self: s.Node.Self(),
		Keys: s.Node.opts.Engine.Cache().Keys(),
	})
}

// handleResult is the tiered, HTTP-semantic results endpoint: validate
// the key shape (400), walk local memory → local disk → owner peer
// (404 when nowhere), and serve with a strong ETag, Cache-Control and
// conditional-request handling. Cluster-internal requests restrict the
// walk to local tiers so peers never chase each other in a cycle.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !runner.ValidKey(key) {
		writeJSON(w, http.StatusBadRequest, errorBody{"malformed result key (want 16-64 lowercase hex digits): " + key})
		return
	}
	localOnly := r.Header.Get(localOnlyHeader) != ""
	rs, tier, ok := s.Node.Lookup(r.Context(), key, localOnly)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{"no cached result for key " + key})
		return
	}
	w.Header().Set("X-Catch-Tier", tier)
	runner.ServeResult(w, r, key, map[string]any{"key": key, "results": rs}, s.ResultMaxAge)
}

// handleShard executes one sweep shard locally (jobs feed the steal
// queue, so other peers can help with the tail).
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req shardRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{"bad request body: " + err.Error()})
		return
	}
	if len(req.Jobs) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{"shard needs at least one job"})
		return
	}
	for i := range req.Jobs {
		if err := req.Jobs[i].Validate(); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("shard job %d: %v", i, err)})
			return
		}
	}
	s.Node.mShardsIn.Inc()
	jl, closeJl, err := s.openShardJournal(req.Jobs, req.Resumable)
	if err != nil {
		writeJSON(w, http.StatusConflict, errorBody{err.Error()})
		return
	}
	defer closeJl()
	out := s.Node.ExecuteShard(r.Context(), req.Jobs, jl)
	writeJSON(w, http.StatusOK, shardResponse{Jobs: out})
}

// openShardJournal opens a content-addressed journal for a resumable
// shard; a non-resumable shard (or a server without a journal dir)
// gets a nil journal and a no-op closer.
func (s *Server) openShardJournal(jobs []runner.Job, resumable bool) (*runner.Journal, func(), error) {
	if !resumable || s.JournalDir == "" {
		return nil, func() {}, nil
	}
	jl, err := runner.OpenShardJournal(s.JournalDir, jobs)
	if err != nil {
		return nil, nil, err
	}
	return jl, func() { _ = jl.Close() }, nil
}

func (s *Server) handleSteal(w http.ResponseWriter, r *http.Request) {
	var req stealRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{"bad request body: " + err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, stealResponse{Jobs: s.Node.HandleSteal(req.Max)})
}

func (s *Server) handleFill(w http.ResponseWriter, r *http.Request) {
	var req fillRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{"bad request body: " + err.Error()})
		return
	}
	if err := s.Node.HandleFill(r.Context(), req.Key, req.Results, req.Replica); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleSweep is the cluster-aware sweep: the grid expands exactly as
// on a single node, then jobs shard across the ring by owner.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req runner.SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{"bad request body: " + err.Error()})
		return
	}
	jobs, err := s.sweepJobs(&req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	var jl *runner.Journal
	closeJl := func() {}
	if req.Resumable {
		if jl, closeJl, err = s.openShardJournal(jobs, true); err != nil {
			writeJSON(w, http.StatusConflict, errorBody{err.Error()})
			return
		}
	}
	defer closeJl()

	//catchlint:ignore determinism sweep wall-clock is response metadata, never simulation output
	start := time.Now()
	out := s.Node.RunSweep(r.Context(), jobs, jl)
	canceled := 0
	for i := range out {
		if out[i].Status == runner.StatusCanceled {
			canceled++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs":     out,
		"canceled": canceled,
		//catchlint:ignore determinism sweep wall-clock is response metadata, never simulation output
		"elapsedMs": time.Since(start).Milliseconds(),
		"cluster": map[string]any{
			"self":    s.Node.Self(),
			"members": s.Node.Ring().Members(),
		},
		"tiers": s.Node.Tiers().Stats(),
	})
}

// sweepJobs expands a sweep request into its job list (the same
// expansion the single-node server performs).
func (s *Server) sweepJobs(req *runner.SweepRequest) ([]runner.Job, error) {
	if len(req.Configs) == 0 {
		return nil, fmt.Errorf("sweep needs at least one config")
	}
	wls := req.Workloads
	if len(wls) == 0 {
		for _, wl := range workloads.All() {
			wls = append(wls, wl.WName)
		}
	}
	grid := runner.Grid{Insts: req.Insts, Warmup: req.Warmup, Workloads: wls}
	if grid.Insts <= 0 {
		grid.Insts = 300_000
	}
	if grid.Warmup == 0 {
		grid.Warmup = 150_000
	} else if grid.Warmup < 0 {
		grid.Warmup = 0
	}
	for _, name := range req.Configs {
		cfg, ok := s.Resolve(name)
		if !ok {
			return nil, fmt.Errorf("unknown config %q", name)
		}
		grid.Configs = append(grid.Configs, cfg)
	}
	return grid.Jobs(), nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status line is already written; an encode failure means the
	// client went away and there is no channel left to report on.
	_ = enc.Encode(v)
}
