package core

import (
	"catch/internal/cache"
	"catch/internal/config"
	"catch/internal/cpu"
	"catch/internal/criticality"
	"catch/internal/interconnect"
	"catch/internal/memory"
	"catch/internal/prefetch"
	"catch/internal/tact"
	"catch/internal/telemetry"
	"catch/internal/trace"
)

// System is one simulated chip: N cores with private caches sharing an
// LLC, a ring and main memory.
type System struct {
	Cfg  config.SystemConfig //catch:nosnap the snapshot's identity, not its state; guarded by the header fingerprint
	LLC  *cache.Cache
	Mem  *memory.DRAM
	Ring *interconnect.Ring
	Sims []*CoreSim
}

// CoreSim is one core plus its private hierarchy view and CATCH
// hardware.
type CoreSim struct {
	sys *System //catch:nosnap backpointer wiring
	ID  int     //catch:nosnap identity fixed at construction

	CPU  *cpu.Core
	Hier *cache.Hierarchy
	Crit criticality.Source
	Tact *tact.Prefetchers

	stride *prefetch.StridePrefetcher
	stream *prefetch.StreamPrefetcher

	gen       trace.Generator   //catch:nosnap the sampling driver repositions the trace source deterministically
	values    trace.ValueSource //catch:nosnap derived deterministically from the trace source
	streamBuf []uint64          //catch:nosnap per-step scratch, dead between instructions
	lastLine  uint64

	// batchIn is the scratch record StepST and the lock-step kernel's
	// predictor cores step: Step's pointer argument escapes (it flows
	// into the Ports closures), so a stack local would heap-allocate
	// once per call. A field on the already-heap CoreSim does not.
	batchIn trace.Inst //catch:nosnap per-step scratch, dead between instructions

	convDone uint64
	retired  int64
}

// NewSystem builds a system from cfg. Its LLC line array comes from
// the process-wide pool (see cache.NewPooled), so a system built after
// another has been released reuses that one's array instead of zeroing
// a fresh 3.25–4.75 MB one; only the LLC's array is pooled, since
// private caches are small. Release the system once its run has
// returned.
func NewSystem(cfg config.SystemConfig) *System {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	s := &System{
		Cfg:  cfg,
		LLC:  cache.NewPooled(cache.Config{Name: "LLC", Size: cfg.LLCSize, Ways: cfg.LLCWays, HitLat: cfg.LLCLat}),
		Mem:  memory.New(cfg.DRAM),
		Ring: interconnect.New(cfg.RingStops, cfg.RingHopLat),
	}
	s.LLC.SetPolicy(cfg.LLCPolicy)
	for i := 0; i < cfg.Cores; i++ {
		s.Sims = append(s.Sims, newCoreSim(s, i))
	}
	// Inclusive back-invalidation reaches every core's private caches.
	backInval := func(addr uint64, now int64) {
		for _, c := range s.Sims {
			c.Hier.InvalidatePrivate(addr, now)
		}
	}
	for _, c := range s.Sims {
		c.Hier.BackInval = backInval
	}
	return s
}

// Release hands the system's LLC line array back to the pool for the
// next system built (see cache.Cache.Release). Call it once the
// system's run has returned normally, never while an abandoned or
// panicked run may still touch it; the system is unusable afterwards.
// A system dropped without Release has its array unmapped once the GC
// finds it unreachable.
func (s *System) Release() { s.LLC.Release() }

func newCoreSim(s *System, id int) *CoreSim {
	cfg := s.Cfg
	c := &CoreSim{sys: s, ID: id}

	c.Hier = &cache.Hierarchy{
		L1I:       cache.New(cache.Config{Name: "L1I", Size: cfg.L1ISize, Ways: cfg.L1Ways, HitLat: cfg.L1Lat}),
		L1D:       cache.New(cache.Config{Name: "L1D", Size: cfg.L1DSize, Ways: cfg.L1Ways, HitLat: cfg.L1Lat}),
		LLC:       s.LLC,
		Mem:       s.Mem,
		Ring:      s.Ring,
		Inclusive: cfg.Inclusive,
		CoreID:    id,
		LLCStop:   cfg.RingStops/2 + id%2, // core and LLC slice stops
	}
	if cfg.HasL2 {
		c.Hier.L2 = cache.New(cache.Config{Name: "L2", Size: cfg.L2Size, Ways: cfg.L2Ways, HitLat: cfg.L2Lat})
	}
	c.Hier.SetMSHRs(cfg.MSHRs)

	if cfg.BaselineStride {
		c.stride = prefetch.NewStride(256)
	}
	if cfg.BaselineStream {
		c.stream = prefetch.NewStream(cfg.StreamCount, cfg.StreamDegree)
	}

	if cfg.EnableCriticality {
		switch cfg.CritSource {
		case "feedsbranch":
			c.Crit = criticality.NewHeuristic(criticality.HeurFeedsBranch, cfg.CritTable, cfg.CritRecord)
		case "robstall":
			c.Crit = criticality.NewHeuristic(criticality.HeurROBStall, cfg.CritTable, cfg.CritRecord)
		default:
			dc := criticality.DefaultConfig(cfg.CPU)
			dc.Table = cfg.CritTable
			dc.Record = cfg.CritRecord
			c.Crit = criticality.New(dc)
		}
	}
	if cfg.EnableTact && c.Crit != nil {
		c.Tact = tact.New(cfg.Tact, c.Crit)
		c.Tact.IssueData = func(addr uint64, now int64) {
			c.Hier.PrefetchData(c.xlat(addr), now)
		}
		c.Tact.ValueAt = func(addr uint64) (uint64, bool) {
			if c.values == nil {
				return 0, false
			}
			return c.values.ValueAt(addr)
		}
	}

	c.CPU = cpu.New(cfg.CPU)
	if cfg.GsharePredictorBits > 0 {
		c.CPU.BP = cpu.NewGshare(cfg.GsharePredictorBits)
	}
	c.CPU.Ports = cpu.Ports{
		Load:        c.load,
		StoreCommit: c.storeCommit,
		FetchLine:   c.fetchLine,
		OnDispatch:  c.onDispatch,
		OnRetire:    c.onRetire,
	}
	return c
}

// AttachTracer wires tr into every core's pipeline, cache hierarchy,
// TACT engine and criticality detector (per-core events carry the core
// id as their thread id). A nil or disabled tracer costs one predicted
// branch per event site — the simulation stays allocation-free either
// way. Pass nil to detach.
func (s *System) AttachTracer(tr *telemetry.Tracer) {
	for _, c := range s.Sims {
		tid := uint8(c.ID)
		c.CPU.Trace, c.CPU.TraceTID = tr, tid
		c.Hier.Trace = tr
		if c.Tact != nil {
			c.Tact.Trace, c.Tact.TraceTID = tr, tid
		}
		if det, ok := c.Crit.(*criticality.Detector); ok {
			det.Trace, det.TraceTID = tr, tid
		}
	}
}

// xlat maps a core-local address into the shared physical space so
// multi-programmed cores do not alias in the LLC or DRAM.
func (c *CoreSim) xlat(a uint64) uint64 { return a + uint64(c.ID)<<44 }

// xlatCode maps code addresses: with SharedCode, symmetric cores share
// the same physical code lines (no replication in the shared LLC).
func (c *CoreSim) xlatCode(a uint64) uint64 {
	if c.sys.Cfg.SharedCode {
		return a
	}
	return c.xlat(a)
}

func (c *CoreSim) load(in *trace.Inst, ready int64) (int64, cache.HitLevel) {
	cfg := &c.sys.Cfg
	addr := c.xlat(in.Addr)

	if cfg.OraclePrefetch && (cfg.OracleAllLoads || (c.Crit != nil && c.Crit.IsCritical(in.PC))) {
		c.Hier.OraclePromoteData(addr, ready)
	}

	lat, lvl := c.Hier.Load(addr, ready)

	if c.stride != nil {
		if pa, ok := c.stride.OnLoad(in.PC, in.Addr); ok {
			c.Hier.PrefetchStrideL1(c.xlat(pa), ready)
		}
	}
	// The multi-stream prefetcher observes the L2-side access stream:
	// one event per new cache line touched by loads (demand misses and
	// the L1 prefetcher's fills both reach the L2 in hardware).
	if c.stream != nil {
		if la := in.Addr >> 6; la != c.lastLine {
			c.lastLine = la
			c.streamBuf = c.stream.OnAccess(in.Addr, c.streamBuf[:0])
			for _, a := range c.streamBuf {
				c.Hier.PrefetchStream(c.xlat(a), ready)
			}
		}
	}

	if cv := cfg.Convert; cv != nil && lvl == cv.From {
		if !cv.OnlyNonCritical || c.Crit == nil || !c.Crit.IsCritical(in.PC) {
			c.convDone++
			if cv.ToLat > lat {
				lat = cv.ToLat
			}
		}
	}
	return lat, lvl
}

func (c *CoreSim) storeCommit(in *trace.Inst, commit int64) {
	c.Hier.Store(c.xlat(in.Addr), commit)
}

func (c *CoreSim) fetchLine(line uint64, now int64) int64 {
	cfg := &c.sys.Cfg
	if cfg.OracleCodeAllHit {
		return cfg.L1Lat
	}
	var code *tact.CodePrefetcher
	if c.Tact != nil {
		code = c.Tact.Code
	}
	if code != nil {
		code.OnLine(line)
	}
	lat, lvl := c.Hier.Fetch(c.xlatCode(line), now)
	if lvl != cache.HitL1 && code != nil {
		code.RunAhead(line, now, func(a uint64, t int64) {
			c.Hier.PrefetchCode(c.xlatCode(a), t)
		})
	}
	return lat
}

func (c *CoreSim) onDispatch(in *trace.Inst, dispatch int64, seq int64) {
	if c.Tact != nil {
		c.Tact.OnDispatch(in, dispatch)
	}
}

func (c *CoreSim) onRetire(r *cpu.Retired) {
	c.retired++
	if c.Crit != nil {
		c.Crit.OnRetire(r)
	}
}

// SetWorkload attaches a generator (and its memory-content oracle, if
// it provides one) to the core, and pre-populates the LLC with the
// workload's declared steady-state-resident regions. The LLC must not
// have been filled or hit yet (see cache.Hierarchy.Prewarm).
func (c *CoreSim) SetWorkload(gen trace.Generator) {
	c.attach(gen)
	c.Hier.Prewarm(c.prewarmRegions(nil))
}

// setWorkloads is SetWorkload for cores 0..len(gens)-1 at once: one
// LLC prewarm covers every core's regions, in core order, because a
// second per-core prewarm would find the LLC already filled.
func (s *System) setWorkloads(gens []trace.Generator) {
	var regs []trace.Region
	for i, gen := range gens {
		c := s.Sims[i]
		c.attach(gen)
		regs = c.prewarmRegions(regs)
	}
	s.Sims[0].Hier.Prewarm(regs)
}

// attach makes gen the core's instruction source and its
// memory-content oracle, if it provides one.
func (c *CoreSim) attach(gen trace.Generator) {
	c.gen = gen
	c.values, _ = gen.(trace.ValueSource)
}

// prewarmRegions appends the attached workload's declared resident
// regions, translated into the shared physical space, to dst.
func (c *CoreSim) prewarmRegions(dst []trace.Region) []trace.Region {
	if pw, ok := c.gen.(trace.Prewarmer); ok {
		for _, r := range pw.PrewarmRegions() {
			dst = append(dst, trace.Region{Base: c.xlat(r.Base), Size: r.Size})
		}
	}
	return dst
}

// resetStats zeroes measurement counters after warmup (timing and
// learned state are preserved).
func (c *CoreSim) resetStats() {
	// The timeliness histogram is reused rather than re-allocated so the
	// post-warmup measurement loop stays allocation-free (an empty
	// histogram merges identically to a nil one).
	hist := c.Hier.Stats.TactTimeliness
	if hist != nil {
		hist.Reset()
	}
	c.Hier.Stats = cache.HierStats{TactTimeliness: hist}
	c.Hier.L1D.ResetStats()
	c.Hier.L1I.ResetStats()
	if c.Hier.L2 != nil {
		c.Hier.L2.ResetStats()
	}
	c.convDone = 0
	c.CPU.CoreStats = cpu.CoreStats{}
	if g, ok := c.CPU.BP.(*cpu.Gshare); ok {
		g.BPStats = cpu.BPStats{}
	}
	if c.stride != nil {
		c.stride.Stats = prefetch.StrideStats{}
	}
	if c.stream != nil {
		c.stream.Stats = prefetch.StreamStats{}
	}
}

// result snapshots the core's measurements. cycles0 is the cycle count
// at the end of warmup.
func (c *CoreSim) result(cycles0 int64) Result {
	r := Result{
		Workload: c.gen.Name(),
		Category: c.gen.Category(),
		Config:   c.sys.Cfg.Name,
		Insts:    c.CPU.Insts,
		Cycles:   c.CPU.Cycles() - cycles0,

		Mispredicts: c.CPU.Mispredicts,
		CodeStalls:  c.CPU.CodeStalls,

		Hier: c.Hier.Stats,
		L1D:  c.Hier.L1D.Stats,
		L1I:  c.Hier.L1I.Stats,
		LLC:  c.sys.LLC.Stats,
		DRAM: c.sys.Mem.Stats,
		Ring: c.sys.Ring.Stats,

		ConvertedLoads: c.convDone,
	}
	if c.Hier.L2 != nil {
		r.L2 = c.Hier.L2.Stats
		r.HasL2 = true
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Insts) / float64(r.Cycles)
	}
	if c.Crit != nil {
		r.Crit = c.Crit.Snapshot()
		r.CriticalPCs = c.Crit.CriticalCount()
	}
	if c.Tact != nil {
		r.Tact = c.Tact.Stats
		if c.Tact.Code != nil {
			r.CodePfLearned = c.Tact.Code.Learned
			r.CodePfIssued = c.Tact.Code.Issued
		}
	}
	return r
}

// RunST runs a single workload on core 0 for insts instructions after a
// warmup of warmup instructions (caches and predictors stay warm;
// counters are reset at the warmup boundary). It is the composition of
// the phase methods in window.go; the sampling subsystem re-composes
// them around snapshot/restore.
func (s *System) RunST(gen trace.Generator, insts, warmup int64) Result {
	s.WarmupST(gen, warmup)
	win := s.BeginMeasure()
	s.StepST(insts)
	return s.EndMeasure(win)
}

// RunMP runs one workload per core, interleaved in rough time order,
// until every core has retired insts instructions past its warmup.
// Returns one Result per core. A warmup of 0 measures every core from
// its first instruction, as RunST does.
func (s *System) RunMP(gens []trace.Generator, insts, warmup int64) []Result {
	n := len(gens)
	if n > len(s.Sims) {
		n = len(s.Sims)
	}
	type state struct {
		cycles0 int64
		warm    bool
		done    bool
	}
	st := make([]state, n)
	s.setWorkloads(gens[:n])
	if warmup <= 0 {
		// Every core starts warm and measures from its first
		// instruction, as RunST does. The boundary check below runs
		// only after a step, so it would warm each core by one.
		for i := range st {
			st[i].warm = true
			s.Sims[i].resetStats()
		}
		s.resetSharedStats()
	}
	var in trace.Inst
	active := n
	warming := n
	for active > 0 {
		// Advance the core furthest behind in time.
		best, bestC := -1, int64(1<<62-1)
		for i := 0; i < n; i++ {
			if st[i].done {
				continue
			}
			if cy := s.Sims[i].CPU.Cycles(); cy < bestC {
				bestC, best = cy, i
			}
		}
		c := s.Sims[best]
		// Step a small batch to amortize the scan.
		for k := 0; k < 32 && !st[best].done; k++ {
			c.gen.Next(&in)
			c.CPU.Step(&in)
			if !st[best].warm && c.retired >= warmup {
				st[best].warm = true
				st[best].cycles0 = c.CPU.Cycles()
				c.resetStats()
				// The shared LLC/DRAM/ring counters can only be reset
				// once; do it when the last core crosses its warmup
				// boundary so no core's measurement window includes
				// another core's warmup traffic (mirrors RunST).
				if warming--; warming == 0 {
					s.resetSharedStats()
				}
			}
			if st[best].warm && c.CPU.Insts >= insts {
				st[best].done = true
				active--
			}
		}
	}
	out := make([]Result, n)
	for i := 0; i < n; i++ {
		out[i] = s.Sims[i].result(st[i].cycles0)
	}
	return out
}
