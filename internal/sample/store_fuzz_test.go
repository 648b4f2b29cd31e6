package sample

import (
	"bytes"
	"testing"
)

// FuzzDecodeWarm feeds arbitrary bytes and lookup keys to the CATCHSP1
// decoder. It must never panic, and any input it accepts must be the
// canonical encoding of what it decoded: re-encoding yields the same
// bytes. Seeds are a real encoding plus the store tests' corruptions.
func FuzzDecodeWarm(f *testing.F) {
	key := warmKey{Fingerprint: 0x9e3779b97f4a7c15, Name: "mcf", Seed: 7, Warmup: 1_000}
	good := encodeWarm(key, []byte("CATCHSS1 image bytes"))
	f.Add(good, key.Fingerprint, key.Name, key.Seed, key.Warmup)
	for _, c := range corruptions {
		f.Add(c.mut(good), key.Fingerprint, key.Name, key.Seed, key.Warmup)
	}
	f.Fuzz(func(t *testing.T, raw []byte, fp uint64, name string, seed uint64, warmup int64) {
		key := warmKey{Fingerprint: fp, Name: name, Seed: seed, Warmup: warmup}
		img, err := decodeWarm(key, raw)
		if err != nil {
			return
		}
		if again := encodeWarm(key, img); !bytes.Equal(again, raw) {
			t.Fatalf("accepted %d bytes that re-encode to %d different bytes", len(raw), len(again))
		}
	})
}
