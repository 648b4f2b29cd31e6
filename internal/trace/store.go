package trace

import (
	"fmt"

	"catch/internal/memo"
)

// traceKey identifies one materialized instruction stream. A workload
// generator is a pure function of its (name, seed) pair, so a recorded
// prefix is fully determined by the key — the store never has to
// compare instruction bytes to decide whether a copy is reusable.
type traceKey struct {
	Name  string
	Seed  uint64
	Insts int64 // recorded stream length (warmup + measured instructions)
}

// Store is a content-addressed memo of materialized traces. Each
// (workload, seed, length) key is recorded at most once per process —
// concurrent requests for one key coalesce onto a single recording —
// and every replayer then shares the one in-memory copy. Recordings
// are never persisted: a stream is a pure function of its key and
// regenerates from the workload's seeded generator. The zero value is
// ready to use.
type Store struct {
	mem memo.Group[traceKey, *Materialized]
}

// NewStore builds a trace store. Its argument is ignored: the store
// keeps recordings in memory only.
func NewStore(string) *Store { return &Store{} }

// Materialize returns the recorded first `total` instructions of w,
// recording at most once across all concurrent callers. The returned
// Materialized is shared: its instruction slice is read-only to every
// consumer.
func (s *Store) Materialize(w *Workload, total int64) (*Materialized, error) {
	if total <= 0 {
		return nil, fmt.Errorf("trace: materialize length must be positive, got %d", total)
	}
	key := traceKey{Name: w.WName, Seed: w.Seed, Insts: total}
	m, _, err := s.mem.Do(key, func() (*Materialized, error) { return record(w, total) })
	return m, err
}

// record generates the first n instructions of a fresh generator of w
// and captures the generator's value source and prewarm regions, which
// are fixed when the workload is built, not by emission progress.
func record(w *Workload, n int64) (*Materialized, error) {
	g := w.NewGen()
	insts := make([]Inst, n)
	for i := range insts {
		if !g.Next(&insts[i]) {
			return nil, fmt.Errorf("trace: workload %s exhausted after %d of %d instructions",
				w.WName, i, n)
		}
	}
	m := &Materialized{w: w, insts: insts}
	if vs, ok := g.(ValueSource); ok {
		m.src = vs
	}
	if pw, ok := g.(Prewarmer); ok {
		m.prewarm = pw.PrewarmRegions()
	}
	return m, nil
}

// Materialized is one recorded instruction stream plus the workload's
// build-time memory-content and prewarm declarations, shared read-only
// by every replayer. The ValueAt source is the generator the stream was
// recorded from: ValueRange functions are pure functions of the
// address and the kernel's build-time state, so concurrent reads are
// safe and replayed ValueAt answers are identical to a fresh
// generator's.
type Materialized struct {
	w       *Workload
	insts   []Inst
	src     ValueSource
	prewarm []Region
}

// Name returns the recorded workload's name.
func (m *Materialized) Name() string { return m.w.WName }

// Category returns the recorded workload's category.
func (m *Materialized) Category() string { return m.w.WCategory }

// Seed returns the recorded workload's seed.
func (m *Materialized) Seed() uint64 { return m.w.Seed }

// Len returns the recorded stream length.
func (m *Materialized) Len() int64 { return int64(len(m.insts)) }

// NewReplay returns a fresh cursor over the shared stream.
func (m *Materialized) NewReplay() *Replay { return &Replay{m: m} }

// Replay is a zero-allocation Generator over a materialized trace. It
// also implements ValueSource and Prewarmer with the recorded
// workload's exact semantics, so core.CoreSim.SetWorkload treats it
// like the original generator. Unlike workload generators, a replay is
// finite: Next returns false once the recording is exhausted.
type Replay struct {
	m   *Materialized
	pos int
}

// Name returns the recorded workload's name.
func (r *Replay) Name() string { return r.m.w.WName }

// Category returns the recorded workload's category.
func (r *Replay) Category() string { return r.m.w.WCategory }

// Reset rewinds the cursor to the start of the recording.
func (r *Replay) Reset() { r.pos = 0 }

// SeekTo positions the cursor at absolute stream offset pos, clamped to
// the recording's bounds. Replays are random-access (the stream is one
// shared slice), so a restored snapshot resumes mid-run for free
// instead of re-stepping the replay to its offset.
func (r *Replay) SeekTo(pos int64) {
	switch {
	case pos < 0:
		r.pos = 0
	case pos > int64(len(r.m.insts)):
		r.pos = len(r.m.insts)
	default:
		r.pos = int(pos)
	}
}

// Next copies out the next recorded instruction.
//
//catch:hotpath
func (r *Replay) Next(i *Inst) bool {
	if r.pos >= len(r.m.insts) {
		return false
	}
	*i = r.m.insts[r.pos]
	r.pos++
	return true
}

// ValueAt reports the program-defined memory value at addr, delegating
// to the recorded workload's value ranges.
func (r *Replay) ValueAt(addr uint64) (uint64, bool) {
	if r.m.src == nil {
		return 0, false
	}
	return r.m.src.ValueAt(addr)
}

// PrewarmRegions returns the recorded workload's steady-state-resident
// regions.
func (r *Replay) PrewarmRegions() []Region { return r.m.prewarm }
