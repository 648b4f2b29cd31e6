package runner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"catch/internal/config"
	"catch/internal/core"
)

// FuzzCacheEntry writes arbitrary bytes as a disk cache entry,
// <key>.json in a fresh directory, and reads it back through
// Cache.GetDisk. It must never panic. A rejected entry is a miss that
// counts one BadDisk and is quarantined to <key>.json.corrupt; an
// accepted entry holds results that survive json.Marshal and a decode
// unchanged. Seeds are a real entry, that entry truncated and with one
// bit flipped, and [], null and [{}].
func FuzzCacheEntry(f *testing.F) {
	job := STJob(config.BaselineExclusive(), "mcf", 2_000, 500)
	rs, err := job.Execute()
	if err != nil {
		f.Fatal(err)
	}
	entry, err := json.Marshal(rs)
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), entry...)
	flipped[len(flipped)/3] ^= 0x04
	for _, seed := range [][]byte{entry, entry[:len(entry)/2], flipped, []byte(`[]`), []byte(`null`), []byte(`[{}]`)} {
		f.Add(seed)
	}
	key := job.Key()
	f.Fuzz(func(t *testing.T, entry []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, fileName(key))
		if err := os.WriteFile(path, entry, 0o644); err != nil {
			t.Fatal(err)
		}
		c := NewCache(dir)
		rs, ok := c.GetDisk(key)
		_, quarantineErr := os.Stat(path + ".corrupt")
		if !ok {
			if rs != nil {
				t.Fatalf("%.120q: a miss returned %d results", entry, len(rs))
			}
			if got := c.Stats().BadDisk; got != 1 {
				t.Fatalf("%.120q: rejected entry counted %d BadDisk, want 1", entry, got)
			}
			if quarantineErr != nil {
				t.Fatalf("%.120q: rejected entry was not quarantined: %v", entry, quarantineErr)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("%.120q: rejected entry is still readable under its name", entry)
			}
			return
		}
		if len(rs) == 0 || c.Stats().BadDisk != 0 || quarantineErr == nil {
			t.Fatalf("%.120q: accepted %d results with BadDisk %d, quarantined %v", entry, len(rs), c.Stats().BadDisk, quarantineErr == nil)
		}
		raw, err := json.Marshal(rs)
		if err != nil {
			t.Fatalf("%.120q: accepted results do not marshal: %v", entry, err)
		}
		var back []core.Result
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%.120q: accepted results do not decode after marshaling: %v", entry, err)
		}
		if !reflect.DeepEqual(rs, back) {
			t.Fatalf("%.120q: accepted results change in a marshal/decode round trip", entry)
		}
	})
}
