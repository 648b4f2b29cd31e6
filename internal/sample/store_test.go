package sample

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"catch/internal/config"
	"catch/internal/trace"
)

func warmInputs(t *testing.T, warmup int64) (config.SystemConfig, *trace.Workload, *trace.Materialized) {
	t.Helper()
	w := testWorkload(t, "mcf")
	m, err := trace.NewStore("").Materialize(w, warmup)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	return config.WithCATCH(config.BaselineExclusive(), "catch-sample"), w, m
}

func snapFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.warm"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	return files
}

// TestStorePersistRoundTrip pins the disk layer: a second store over
// the same directory serves the image from disk, byte-identical, with
// no fresh warmup.
func TestStorePersistRoundTrip(t *testing.T) {
	const warmup = 1_000
	cfg, w, m := warmInputs(t, warmup)
	dir := t.TempDir()

	first := NewStore(dir)
	img, err := first.Warm(cfg, w, m, warmup)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if st := first.Stats(); st.Built != 1 {
		t.Errorf("stats after first warm = %+v, want one build", st)
	}
	if len(snapFiles(t, dir)) != 1 {
		t.Fatal("no snapshot file persisted")
	}

	second := NewStore(dir)
	again, err := second.Warm(cfg, w, m, warmup)
	if err != nil {
		t.Fatalf("warm from disk: %v", err)
	}
	if !bytes.Equal(img, again) {
		t.Error("disk-loaded image differs from the freshly built one")
	}
	if st := second.Stats(); st.DiskHits != 1 || st.Built != 0 {
		t.Errorf("stats after disk load = %+v, want one disk hit and no builds", st)
	}

	// The memory layer answers repeats without touching disk again.
	if _, err := second.Warm(cfg, w, m, warmup); err != nil {
		t.Fatalf("memory hit: %v", err)
	}
	if st := second.Stats(); st.MemHits != 1 {
		t.Errorf("stats after repeat = %+v, want one memory hit", st)
	}
}

// corruptions are the damaged-file shapes the store must detect; the
// decoder's fuzz target seeds from them too.
var corruptions = []struct {
	name string
	mut  func([]byte) []byte
}{
	{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
	{"bitflip", func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[len(c)/3] ^= 0x10
		return c
	}},
	{"bad magic", func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[0] ^= 0xFF
		return c
	}},
	{"empty", func(b []byte) []byte { return nil }},
}

// TestStoreCorruptionRegenerates mirrors the trace store's corruption
// tests: a truncated or bit-flipped snapshot file is detected,
// quarantined to *.corrupt and regenerated with the correct contents.
func TestStoreCorruptionRegenerates(t *testing.T) {
	const warmup = 1_000
	cfg, w, m := warmInputs(t, warmup)

	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			img, err := NewStore(dir).Warm(cfg, w, m, warmup)
			if err != nil {
				t.Fatalf("warm: %v", err)
			}
			files := snapFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("want one snapshot file, got %d", len(files))
			}
			raw, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if err := os.WriteFile(files[0], tc.mut(raw), 0o644); err != nil {
				t.Fatalf("corrupt: %v", err)
			}

			s := NewStore(dir)
			again, err := s.Warm(cfg, w, m, warmup)
			if err != nil {
				t.Fatalf("warm over corrupt file: %v", err)
			}
			if !bytes.Equal(img, again) {
				t.Error("regenerated image differs from the original")
			}
			st := s.Stats()
			if st.BadDisk != 1 || st.Built != 1 || st.DiskHits != 0 {
				t.Errorf("stats = %+v, want the corrupt file detected and a fresh build", st)
			}
			if _, err := os.Stat(files[0] + ".corrupt"); err != nil {
				t.Errorf("damaged file not quarantined: %v", err)
			}
			// The regenerated file is valid for the next process.
			if st := NewStore(dir); true {
				if _, err := st.Warm(cfg, w, m, warmup); err != nil {
					t.Fatalf("warm after regeneration: %v", err)
				}
				if got := st.Stats(); got.DiskHits != 1 {
					t.Errorf("regenerated file not served from disk: %+v", got)
				}
			}
		})
	}
}

// TestStoreKeyMismatchRejected pins that a snapshot persisted under a
// different key (here: a different warmup length whose file was moved
// over ours) is rejected by the header guard, not silently restored.
func TestStoreKeyMismatchRejected(t *testing.T) {
	const warmup = 1_000
	cfg, w, m := warmInputs(t, 2*warmup)
	// Persist each key's image in a directory of its own to learn both
	// file names, then plant the short warmup's image under the long
	// warmup's name.
	short, long := t.TempDir(), t.TempDir()
	if _, err := NewStore(short).Warm(cfg, w, m, warmup); err != nil {
		t.Fatalf("warm: %v", err)
	}
	if _, err := NewStore(long).Warm(cfg, w, m, 2*warmup); err != nil {
		t.Fatalf("warm: %v", err)
	}
	src, dst := snapFiles(t, short), snapFiles(t, long)
	if len(src) != 1 || len(dst) != 1 {
		t.Fatalf("snapshot files = %v, %v, want one each", src, dst)
	}
	raw, err := os.ReadFile(src[0])
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(dst[0], raw, 0o644); err != nil {
		t.Fatalf("plant: %v", err)
	}
	other := NewStore(long)
	if _, err := other.Warm(cfg, w, m, 2*warmup); err != nil {
		t.Fatalf("warm: %v", err)
	}
	if st := other.Stats(); st.BadDisk != 1 || st.Built != 1 {
		t.Errorf("stats = %+v, want the planted file rejected and a fresh build", st)
	}
}

// TestStoreConcurrent hammers one store from many goroutines across a
// mix of keys; run under -race it doubles as the data-race guard. All
// callers of one key must observe the identical image.
func TestStoreConcurrent(t *testing.T) {
	const warmup = 500
	cfg, w, m := warmInputs(t, 2*warmup)
	cfgB := config.BaselineExclusive()
	s := NewStore(t.TempDir())

	const callers = 8
	images := make([][]byte, callers*2)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			img, err := s.Warm(cfg, w, m, warmup)
			if err != nil {
				t.Errorf("warm: %v", err)
			}
			images[i] = img
		}(i)
		go func(i int) {
			defer wg.Done()
			img, err := s.Warm(cfgB, w, m, 2*warmup)
			if err != nil {
				t.Errorf("warm: %v", err)
			}
			images[callers+i] = img
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if !bytes.Equal(images[0], images[i]) {
			t.Fatalf("caller %d observed a different image", i)
		}
		if !bytes.Equal(images[callers], images[callers+i]) {
			t.Fatalf("caller %d observed a different image for key B", i)
		}
	}
	if bytes.Equal(images[0], images[callers]) {
		t.Error("different keys yielded identical images")
	}
	st := s.Stats()
	if st.Built != 2 {
		t.Errorf("built %d images for 2 keys, want 2", st.Built)
	}
	if st.Coalesced+st.MemHits != callers*2-2 {
		t.Errorf("stats = %+v: coalesced+memHits should cover the other %d calls", st, callers*2-2)
	}
}
