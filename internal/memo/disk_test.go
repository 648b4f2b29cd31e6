package memo_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"catch/internal/fault"
	"catch/internal/memo"
)

func encodeBytes(b string) func() ([]byte, error) {
	return func() ([]byte, error) { return []byte(b), nil }
}

// dirNames lists dir's file names (nil when dir does not exist).
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	names, err := fault.OS{}.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return names
}

// TestDiskWriteFailuresLeaveNoFiles drives one entry through an
// injected WriteFile failure, then an injected Rename failure, then a
// healthy write. A failed write leaves neither the temp file nor the
// final file behind and counts one error.
func TestDiskWriteFailuresLeaveNoFiles(t *testing.T) {
	dir := t.TempDir()
	// Every write site fails once: WriteFile's site is the temp name,
	// Rename's the final name, so the first write fails in WriteFile and
	// the second in Rename.
	inj := fault.NewInjector(fault.Plan{Seed: 1, Rules: map[fault.Kind]fault.Rule{
		fault.DiskWrite: {Prob: 1, Times: 1},
	}})
	d := memo.NewDisk(dir, fault.InjectFS{FS: fault.OS{}, Inj: inj}, nil)

	for i, stage := range []string{"WriteFile", "Rename"} {
		d.Write("entry.bin", encodeBytes("payload"))
		if names := dirNames(t, dir); len(names) != 0 {
			t.Fatalf("failed %s left files behind: %v", stage, names)
		}
		if got := d.Errs(); got != uint64(i+1) {
			t.Fatalf("after failed %s: Errs() = %d, want %d", stage, got, i+1)
		}
	}
	if got := inj.Injected(fault.DiskWrite); got != 2 {
		t.Fatalf("injected %d write faults, want 2", got)
	}

	d.Write("entry.bin", encodeBytes("payload"))
	if names := dirNames(t, dir); !slices.Equal(names, []string{"entry.bin"}) {
		t.Fatalf("healthy write left %v, want only entry.bin", names)
	}
	if raw, ok := d.Read("entry.bin"); !ok || string(raw) != "payload" {
		t.Fatalf("Read = (%q, %v)", raw, ok)
	}
	if got := d.Errs(); got != 2 {
		t.Fatalf("Errs() = %d after healthy write and read, want 2", got)
	}
}

// TestDiskQuarantine: a quarantined file moves to *.corrupt with its
// bytes intact, is no longer readable under its name, and is counted.
func TestDiskQuarantine(t *testing.T) {
	dir := t.TempDir()
	d := memo.NewDisk(dir, nil, nil)
	d.Write("entry.bin", encodeBytes("damaged"))
	d.Quarantine("entry.bin")

	if got := d.Quarantined(); got != 1 {
		t.Fatalf("Quarantined() = %d, want 1", got)
	}
	if _, ok := d.Read("entry.bin"); ok {
		t.Fatal("quarantined file still readable under its name")
	}
	raw, err := os.ReadFile(filepath.Join(dir, "entry.bin.corrupt"))
	if err != nil || string(raw) != "damaged" {
		t.Fatalf("quarantined copy = (%q, %v)", raw, err)
	}
	if got := d.Errs(); got != 0 {
		t.Fatalf("a missing file counted as %d disk errors", got)
	}
}

// TestDiskList: List reports only entries with the suffix (never temp
// or quarantined files), and nothing while the breaker is open.
func TestDiskList(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.json", "b.json", "c.json.tmp", "d.json.corrupt", "README.md"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	br := fault.NewBreaker(1, 100)
	d := memo.NewDisk(dir, nil, br)
	if got := d.List(".json"); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("List(.json) = %v, want [a b]", got)
	}

	br.Failure() // threshold 1: open
	if got := d.List(".json"); got != nil {
		t.Fatalf("List with the breaker open = %v, want nothing", got)
	}
	if _, ok := d.Read("a.json"); ok {
		t.Fatal("Read with the breaker open touched the disk")
	}
}

// TestDiskMemoryOnly: a Disk without a directory never builds the
// bytes it would write, and every read and listing misses.
func TestDiskMemoryOnly(t *testing.T) {
	d := memo.NewDisk("", nil, nil)
	d.Write("entry.bin", func() ([]byte, error) {
		t.Fatal("memory-only Disk called encode")
		return nil, nil
	})
	if _, ok := d.Read("entry.bin"); ok {
		t.Fatal("memory-only Read hit")
	}
	if got := d.List(".bin"); got != nil {
		t.Fatalf("memory-only List = %v", got)
	}
	d.Quarantine("entry.bin")
	if d.Errs() != 0 || d.Quarantined() != 0 {
		t.Fatalf("memory-only counters = (%d, %d), want zero", d.Errs(), d.Quarantined())
	}
}
