package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"catch/internal/snap"
)

// FuzzDecodeTrace feeds arbitrary bytes and lookup keys to the CATCHTR1
// decoder. It must never panic, and any input it accepts must be the
// canonical encoding of what it decoded: re-encoding yields the same
// bytes. Seeds are a real encoding plus the truncated, bit-flipped,
// bad-magic and empty files the store's corruption tests use.
func FuzzDecodeTrace(f *testing.F) {
	insts := []Inst{
		{PC: 0x401000, Addr: 0x7f0010, Data: 42, Op: OpLoad, Dst: 3, Src1: 1, Src2: -1},
		{PC: 0x401004, Op: OpBranch, Dst: -1, Src1: 3, Src2: -1, Taken: true, Mispred: true},
		{PC: 0x401008, Addr: 0x7f0018, Op: OpStore, Dst: -1, Src1: 2, Src2: 3},
	}
	key := TraceKey{Name: "mcf", Seed: 7, Insts: int64(len(insts))}
	good := encodeTrace(key, insts)
	flip := func(i int, mask byte) []byte {
		c := bytes.Clone(good)
		c[i] ^= mask
		return c
	}
	for _, raw := range [][]byte{good, good[:len(good)/2], flip(len(good)/3, 0x10), flip(0, 0xFF), nil} {
		f.Add(raw, key.Name, key.Seed, key.Insts)
	}
	// A record padding byte set under a valid checksum.
	pad := bytes.Clone(good)
	recs := pad[len(pad)-8-len(insts)*recordBytes : len(pad)-8]
	recs[recordBytes-1] = 1
	binary.LittleEndian.PutUint64(pad[len(pad)-8:], snap.Fnv1a(recs))
	f.Add(pad, key.Name, key.Seed, key.Insts)
	// A record count whose byte length wraps to zero, over an empty
	// record section with a valid checksum.
	const huge = 1 << 59
	raw := append([]byte(traceMagic), make([]byte, 18)...)
	binary.LittleEndian.PutUint64(raw[len(traceMagic)+8:], huge)
	raw = binary.LittleEndian.AppendUint64(raw, snap.Fnv1a(nil))
	f.Add(raw, "", uint64(0), int64(huge))
	f.Fuzz(func(t *testing.T, raw []byte, name string, seed uint64, n int64) {
		key := TraceKey{Name: name, Seed: seed, Insts: n}
		insts, err := decodeTrace(key, raw)
		if err != nil {
			return
		}
		if again := encodeTrace(key, insts); !bytes.Equal(again, raw) {
			t.Fatalf("accepted %d bytes that re-encode to %d different bytes", len(raw), len(again))
		}
	})
}
