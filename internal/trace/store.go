package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"catch/internal/memo"
	"catch/internal/snap"
	"catch/internal/stats"
)

// TraceKey identifies one materialized instruction stream. A workload
// generator is a pure function of its (name, seed) pair, so a recorded
// prefix is fully determined by the key — the store never has to
// compare instruction bytes to decide whether a copy is reusable.
type TraceKey struct {
	Name  string
	Seed  uint64
	Insts int64 // recorded stream length (warmup + measured instructions)
}

// StoreStats counts store traffic. Coalesced requests waited on an
// identical in-flight materialization instead of recording their own.
type StoreStats struct {
	Recorded  uint64 `json:"recorded"`
	MemHits   uint64 `json:"memHits"`
	Coalesced uint64 `json:"coalesced"`
	DiskHits  uint64 `json:"diskHits"`
	BadDisk   uint64 `json:"badDisk"` // corrupted on-disk traces replaced by a fresh recording
}

// Store is a content-addressed memo of materialized traces. Each
// (workload, seed, length) key is recorded at most once per process —
// concurrent requests for one key coalesce onto a single recording —
// and every replayer then shares the one in-memory copy. With a
// directory configured, recordings also persist as flat binary files
// so later processes skip the kernel scheduling entirely. The disk
// layer is an optimization: every I/O failure degrades to recording in
// memory, and a corrupt file is quarantined and re-recorded.
type Store struct {
	mem  memo.Group[TraceKey, *Materialized]
	disk *memo.Disk

	recorded  stats.AtomicCounter
	memHits   stats.AtomicCounter
	coalesced stats.AtomicCounter
	diskHits  stats.AtomicCounter
	badDisk   stats.AtomicCounter
}

// NewStore builds a trace store. dir may be empty for a memory-only
// store; otherwise it is created on first persist.
func NewStore(dir string) *Store {
	return &Store{disk: memo.NewDisk(dir, nil, nil)}
}

// Stats snapshots the counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Recorded:  s.recorded.Value(),
		MemHits:   s.memHits.Value(),
		Coalesced: s.coalesced.Value(),
		DiskHits:  s.diskHits.Value(),
		BadDisk:   s.badDisk.Value(),
	}
}

// Materialize returns the recorded first `total` instructions of w,
// recording (or loading from disk) at most once across all concurrent
// callers. The returned Materialized is shared: its instruction slice
// is read-only to every consumer.
func (s *Store) Materialize(w *Workload, total int64) (*Materialized, error) {
	if total <= 0 {
		return nil, fmt.Errorf("trace: materialize length must be positive, got %d", total)
	}
	key := TraceKey{Name: w.WName, Seed: w.Seed, Insts: total}
	m, out, err := s.mem.Do(key, func() (*Materialized, error) { return s.materialize(w, key) })
	switch out {
	case memo.Hit:
		s.memHits.Inc()
	case memo.Coalesced:
		s.coalesced.Inc()
	}
	return m, err
}

// materialize loads key from disk or records it fresh (persisting the
// recording, best-effort, when a directory is configured).
func (s *Store) materialize(w *Workload, key TraceKey) (*Materialized, error) {
	name, persist := fileName(key)
	if persist {
		if raw, ok := s.disk.Read(name); ok {
			if insts, err := decodeTrace(key, raw); err == nil {
				s.diskHits.Inc()
				// A fresh generator (built, never stepped) supplies the
				// ValueAt and prewarm state the file cannot carry: both
				// are deterministic functions of the workload's build,
				// not of emission progress.
				return newMaterialized(w, w.NewGen(), insts), nil
			}
			s.badDisk.Inc()
			s.disk.Quarantine(name)
		}
	}
	g := w.NewGen()
	insts := make([]Inst, key.Insts)
	for i := range insts {
		if !g.Next(&insts[i]) {
			return nil, fmt.Errorf("trace: workload %s exhausted after %d of %d instructions",
				key.Name, i, key.Insts)
		}
	}
	s.recorded.Inc()
	if persist {
		s.disk.Write(name, func() ([]byte, error) { return encodeTrace(key, insts), nil })
	}
	return newMaterialized(w, g, insts), nil
}

// Materialized is one recorded instruction stream plus the workload's
// build-time memory-content and prewarm declarations, shared read-only
// by every replayer. The ValueAt source is the generator the stream was
// recorded from (or an identically built fresh one for disk loads):
// ValueRange functions are pure functions of the address and the
// kernel's build-time state, so concurrent reads are safe and replayed
// ValueAt answers are identical to a fresh generator's.
type Materialized struct {
	w       *Workload
	insts   []Inst
	src     ValueSource
	prewarm []Region
}

// newMaterialized captures g's value source and prewarm regions. g must
// be a generator of w that has completed Reset (emission state does not
// matter: values and prewarm regions are fixed at build time).
func newMaterialized(w *Workload, g Generator, insts []Inst) *Materialized {
	m := &Materialized{w: w, insts: insts}
	if vs, ok := g.(ValueSource); ok {
		m.src = vs
	}
	if pw, ok := g.(Prewarmer); ok {
		m.prewarm = pw.PrewarmRegions()
	}
	return m
}

// Name returns the recorded workload's name.
func (m *Materialized) Name() string { return m.w.WName }

// Category returns the recorded workload's category.
func (m *Materialized) Category() string { return m.w.WCategory }

// Seed returns the recorded workload's seed.
func (m *Materialized) Seed() uint64 { return m.w.Seed }

// Len returns the recorded stream length.
func (m *Materialized) Len() int64 { return int64(len(m.insts)) }

// Insts returns the shared recorded stream. Callers must treat it as
// read-only: every replayer and every lock-step batch kernel iterates
// this one slice.
func (m *Materialized) Insts() []Inst { return m.insts }

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

// Pos returns the cursor's absolute stream offset.
func (r *Replay) Pos() int64 { return int64(r.pos) }

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

// Flat binary encoding: a self-describing header, then one fixed-width
// 32-byte record per instruction, then an FNV-1a checksum over the
// record bytes. Fixed-width records keep encode/decode a straight
// memory walk and make the file size a pure function of the key.
//
//	magic   8B  "CATCHTR1" (format version folded into the magic)
//	seed    8B  little-endian uint64
//	count   8B  little-endian uint64
//	nameLen 2B  little-endian uint16, then nameLen bytes of name
//	records count × 32B (PC, Addr, Data u64; Op, Dst, Src1, Src2 u8;
//	        flags u8 (bit0 Taken, bit1 Mispred); 3B zero pad)
//	check   8B  FNV-1a over the record bytes
const (
	traceMagic  = "CATCHTR1"
	recordBytes = 32
)

// fileName maps a key to its on-disk file: a content address over the
// key itself, so the name needs no escaping and collisions would need a
// SHA-256 collision. Keys whose name the header cannot hold are never
// persisted.
//
//catch:keyfn
func fileName(key TraceKey) (string, bool) {
	if len(key.Name) > 1<<16-1 {
		return "", false
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s\x00%d\x00%d", key.Name, key.Seed, key.Insts)))
	return hex.EncodeToString(sum[:]) + ".trace", true
}

// encodeTrace renders the recording in the flat binary layout.
func encodeTrace(key TraceKey, insts []Inst) []byte {
	n := len(traceMagic) + 8 + 8 + 2 + len(key.Name) + len(insts)*recordBytes + 8
	buf := make([]byte, 0, n)
	buf = append(buf, traceMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, key.Seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(insts)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key.Name)))
	buf = append(buf, key.Name...)
	recs := len(buf)
	for i := range insts {
		buf = appendInst(buf, &insts[i])
	}
	return binary.LittleEndian.AppendUint64(buf, snap.Fnv1a(buf[recs:]))
}

func appendInst(buf []byte, in *Inst) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, in.PC)
	buf = binary.LittleEndian.AppendUint64(buf, in.Addr)
	buf = binary.LittleEndian.AppendUint64(buf, in.Data)
	var flags byte
	if in.Taken {
		flags |= 1
	}
	if in.Mispred {
		flags |= 2
	}
	return append(buf, byte(in.Op), byte(in.Dst), byte(in.Src1), byte(in.Src2), flags, 0, 0, 0)
}

// decodeTrace parses and validates a persisted recording against the
// key it was looked up under.
func decodeTrace(key TraceKey, raw []byte) ([]Inst, error) {
	hdr := len(traceMagic) + 8 + 8 + 2
	if len(raw) < hdr || string(raw[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic")
	}
	off := len(traceMagic)
	seed := binary.LittleEndian.Uint64(raw[off:])
	count := binary.LittleEndian.Uint64(raw[off+8:])
	nameLen := int(binary.LittleEndian.Uint16(raw[off+16:]))
	off += 18
	if len(raw) < off+nameLen {
		return nil, fmt.Errorf("trace: truncated name")
	}
	name := string(raw[off : off+nameLen])
	off += nameLen
	if name != key.Name || seed != key.Seed || count != uint64(key.Insts) {
		return nil, fmt.Errorf("trace: header (%s, %d, %d) does not match key (%s, %d, %d)",
			name, seed, count, key.Name, key.Seed, key.Insts)
	}
	// Sized by division: a hostile count must not overflow the
	// expected length into a match and then a huge allocation.
	body := len(raw) - off - 8
	if body < 0 || body%recordBytes != 0 || uint64(body/recordBytes) != count {
		return nil, fmt.Errorf("trace: file is %d bytes, want %d records", len(raw), count)
	}
	recs := raw[off : len(raw)-8]
	if snap.Fnv1a(recs) != binary.LittleEndian.Uint64(raw[len(raw)-8:]) {
		return nil, fmt.Errorf("trace: checksum mismatch")
	}
	insts := make([]Inst, count)
	for i := range insts {
		rec := recs[i*recordBytes:]
		// Reserved flag bits and padding must be zero, so every
		// accepted file is the canonical encoding of its records.
		if rec[28]&^3 != 0 || rec[29]|rec[30]|rec[31] != 0 {
			return nil, fmt.Errorf("trace: record %d sets reserved bits", i)
		}
		decodeInst(&insts[i], rec)
	}
	return insts, nil
}

func decodeInst(in *Inst, rec []byte) {
	in.PC = binary.LittleEndian.Uint64(rec)
	in.Addr = binary.LittleEndian.Uint64(rec[8:])
	in.Data = binary.LittleEndian.Uint64(rec[16:])
	in.Op = Op(rec[24])
	in.Dst, in.Src1, in.Src2 = int8(rec[25]), int8(rec[26]), int8(rec[27])
	in.Taken = rec[28]&1 != 0
	in.Mispred = rec[28]&2 != 0
}
