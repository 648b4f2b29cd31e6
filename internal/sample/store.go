// Package sample is the representative-interval sampling subsystem:
// it profiles a workload's measurement region into fixed-length
// intervals, clusters the intervals with a small deterministic k-means,
// simulates only one representative per cluster from a warm-state
// snapshot, and extrapolates full-run statistics with per-metric error
// bars. Sweeps that share a (config, workload, warmup) tuple also share
// the warm snapshot, so a whole grid pays for warmup once.
package sample

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/memo"
	"catch/internal/snap"
	"catch/internal/stats"
	"catch/internal/trace"
)

// warmKey identifies one warm-state snapshot: the exact
// microarchitecture (config fingerprint) plus the exact warmup stream
// prefix (workload name, seed, warmup length). Both simulation and
// trace generation are pure functions of these inputs, so the image is
// fully determined by the key.
type warmKey struct {
	Fingerprint uint64
	Name        string
	Seed        uint64
	Warmup      int64
}

// StoreStats counts warm-snapshot store traffic. Coalesced requests
// waited on an identical in-flight warmup instead of running their own.
type StoreStats struct {
	Built     uint64 `json:"built"`
	MemHits   uint64 `json:"memHits"`
	Coalesced uint64 `json:"coalesced"`
	DiskHits  uint64 `json:"diskHits"`
	BadDisk   uint64 `json:"badDisk"` // corrupted on-disk snapshots replaced by a fresh warmup
}

// Store is a content-addressed memo of warm-state snapshots, built on
// the same pieces as trace.Store: each key is warmed at most once per
// process (concurrent requests coalesce onto a single warmup), and with
// a directory configured images persist as flat binary files so later
// processes skip the warmup simulation entirely. The disk layer is an
// optimization: every I/O failure degrades to warming in memory, and a
// corrupt file is quarantined and regenerated.
type Store struct {
	mem  memo.Group[warmKey, []byte]
	disk *memo.Disk

	built     stats.AtomicCounter
	memHits   stats.AtomicCounter
	coalesced stats.AtomicCounter
	diskHits  stats.AtomicCounter
	badDisk   stats.AtomicCounter
}

// NewStore builds a snapshot store. dir may be empty for a memory-only
// store; otherwise it is created on first persist.
func NewStore(dir string) *Store {
	return &Store{disk: memo.NewDisk(dir, nil, nil)}
}

// Stats snapshots the counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Built:     s.built.Value(),
		MemHits:   s.memHits.Value(),
		Coalesced: s.coalesced.Value(),
		DiskHits:  s.diskHits.Value(),
		BadDisk:   s.badDisk.Value(),
	}
}

// Warm returns the snapshot image of a system built from cfg after
// warming it with the first warmup instructions of m, building the
// image at most once across all concurrent callers. The returned slice
// is shared and read-only to every consumer; m must hold at least
// warmup instructions of the workload w.
func (s *Store) Warm(cfg config.SystemConfig, w *trace.Workload, m *trace.Materialized, warmup int64) ([]byte, error) {
	if warmup < 0 {
		return nil, fmt.Errorf("sample: warmup must be non-negative, got %d", warmup)
	}
	fp, err := core.ConfigFingerprint(&cfg)
	if err != nil {
		return nil, err
	}
	key := warmKey{Fingerprint: fp, Name: w.WName, Seed: w.Seed, Warmup: warmup}
	img, out, err := s.mem.Do(key, func() ([]byte, error) { return s.warm(cfg, m, key) })
	switch out {
	case memo.Hit:
		s.memHits.Inc()
	case memo.Coalesced:
		s.coalesced.Inc()
	}
	return img, err
}

// warm loads key from disk or runs the warmup fresh (persisting the
// image, best-effort, when a directory is configured).
func (s *Store) warm(cfg config.SystemConfig, m *trace.Materialized, key warmKey) ([]byte, error) {
	name, persist := fileName(key)
	if persist {
		if raw, ok := s.disk.Read(name); ok {
			if img, err := decodeWarm(key, raw); err == nil {
				s.diskHits.Inc()
				return img, nil
			}
			s.badDisk.Inc()
			s.disk.Quarantine(name)
		}
	}
	sys := core.NewSystem(cfg)
	sys.WarmupST(m.NewReplay(), key.Warmup)
	img, err := sys.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("sample: snapshot after warmup: %w", err)
	}
	s.built.Inc()
	if persist {
		s.disk.Write(name, func() ([]byte, error) { return encodeWarm(key, img), nil })
	}
	return img, nil
}

// Flat binary encoding: a self-describing header binding the image to
// its key, the system snapshot image (which carries its own magic and
// checksum), and an FNV-1a checksum over everything before it.
//
//	magic   8B  "CATCHSP1" (format version folded into the magic)
//	config  8B  little-endian config fingerprint
//	seed    8B  little-endian uint64
//	warmup  8B  little-endian uint64
//	nameLen 2B  little-endian uint16, then nameLen bytes of name
//	imgLen  8B  little-endian uint64, then imgLen bytes of image
//	check   8B  FNV-1a over everything before this field
const snapMagic = "CATCHSP1"

// fileName maps a key to its on-disk file: a content address over the
// key itself, so the name needs no escaping and collisions would need a
// SHA-256 collision. Keys whose name the header cannot hold are never
// persisted.
//
//catch:keyfn
func fileName(key warmKey) (string, bool) {
	if len(key.Name) > 1<<16-1 {
		return "", false
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s\x00%d\x00%d\x00%d",
		key.Name, key.Seed, key.Warmup, key.Fingerprint)))
	return hex.EncodeToString(sum[:]) + ".warm", true
}

// encodeWarm renders the image in the flat binary layout.
func encodeWarm(key warmKey, img []byte) []byte {
	n := len(snapMagic) + 8*4 + 2 + len(key.Name) + 8 + len(img) + 8
	buf := make([]byte, 0, n)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, key.Fingerprint)
	buf = binary.LittleEndian.AppendUint64(buf, key.Seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(key.Warmup))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key.Name)))
	buf = append(buf, key.Name...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(img)))
	buf = append(buf, img...)
	return binary.LittleEndian.AppendUint64(buf, snap.Fnv1a(buf))
}

// decodeWarm parses and validates a persisted image against the key it
// was looked up under.
func decodeWarm(key warmKey, raw []byte) ([]byte, error) {
	hdr := len(snapMagic) + 8*3 + 2
	if len(raw) < hdr+8+8 || string(raw[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("sample: bad magic")
	}
	body, trailer := raw[:len(raw)-8], raw[len(raw)-8:]
	if snap.Fnv1a(body) != binary.LittleEndian.Uint64(trailer) {
		return nil, fmt.Errorf("sample: checksum mismatch")
	}
	off := len(snapMagic)
	fp := binary.LittleEndian.Uint64(raw[off:])
	seed := binary.LittleEndian.Uint64(raw[off+8:])
	warmup := binary.LittleEndian.Uint64(raw[off+16:])
	nameLen := int(binary.LittleEndian.Uint16(raw[off+24:]))
	off += 26
	if len(body) < off+nameLen+8 {
		return nil, fmt.Errorf("sample: truncated name")
	}
	name := string(raw[off : off+nameLen])
	off += nameLen
	if name != key.Name || fp != key.Fingerprint || seed != key.Seed || warmup != uint64(key.Warmup) {
		return nil, fmt.Errorf("sample: header (%s, %#x, %d, %d) does not match key (%s, %#x, %d, %d)",
			name, fp, seed, warmup, key.Name, key.Fingerprint, key.Seed, key.Warmup)
	}
	imgLen := binary.LittleEndian.Uint64(raw[off:])
	off += 8
	if uint64(len(body)-off) != imgLen {
		return nil, fmt.Errorf("sample: image is %d bytes, header says %d", len(body)-off, imgLen)
	}
	return body[off:], nil
}
