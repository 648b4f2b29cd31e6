package memo

import (
	"errors"
	"io/fs"
	"path/filepath"
	"strings"

	"catch/internal/fault"
	"catch/internal/stats"
)

// Disk is one directory of content-addressed files. It is an
// optimization, never the data: every failure degrades to a miss or a
// skipped write, counts in Errs, and feeds the breaker, which after
// enough consecutive failures turns the Disk memory-only until a
// half-open probe succeeds. An empty directory makes the Disk
// memory-only for good.
type Disk struct {
	dir     string
	fs      fault.FS
	breaker *fault.Breaker

	errs        stats.AtomicCounter
	quarantined stats.AtomicCounter
}

// NewDisk builds a Disk over dir, created on first write. A nil fsys
// means the real filesystem; a nil breaker leaves the Disk unguarded.
func NewDisk(dir string, fsys fault.FS, breaker *fault.Breaker) *Disk {
	if fsys == nil {
		fsys = fault.OS{}
	}
	return &Disk{dir: dir, fs: fsys, breaker: breaker}
}

// Errs counts disk I/O failures (reads, writes and listings).
func (d *Disk) Errs() uint64 { return d.errs.Value() }

// Quarantined counts corrupt files renamed aside by Quarantine.
func (d *Disk) Quarantined() uint64 { return d.quarantined.Value() }

// Read returns the contents of the file name. A missing file is a
// healthy miss; while the breaker is open the disk is not touched.
func (d *Disk) Read(name string) ([]byte, bool) {
	if d.dir == "" || !d.breaker.Allow() {
		return nil, false
	}
	raw, err := d.fs.ReadFile(filepath.Join(d.dir, name))
	d.observe(err)
	return raw, err == nil
}

// Write persists the bytes encode returns as the file name, through a
// temp file and a rename so readers never observe a half-written file.
// A memory-only Disk never calls encode. encode runs before the
// breaker is asked, so a failing encode cannot strand a half-open
// probe.
func (d *Disk) Write(name string, encode func() ([]byte, error)) {
	if d.dir == "" {
		return
	}
	data, err := encode()
	if err != nil || !d.breaker.Allow() {
		return
	}
	if err := d.fs.MkdirAll(d.dir, 0o755); err != nil {
		d.fail()
		return
	}
	p := filepath.Join(d.dir, name)
	tmp := p + ".tmp"
	if err := d.fs.WriteFile(tmp, data, 0o644); err != nil {
		d.fail()
		_ = d.fs.Remove(tmp) // best-effort cleanup of a partial temp file
		return
	}
	if err := d.fs.Rename(tmp, p); err != nil {
		d.fail()
		_ = d.fs.Remove(tmp) // best-effort cleanup of the temp file
		return
	}
	d.breaker.Success()
}

// Quarantine renames the corrupt file name aside to name+".corrupt",
// where it stays for inspection but is never read again, so the caller
// regenerates the entry. Best-effort: a failed rename leaves the file
// to be detected again by the next Read.
func (d *Disk) Quarantine(name string) {
	if d.dir == "" {
		return
	}
	p := filepath.Join(d.dir, name)
	if err := d.fs.Rename(p, p+".corrupt"); err == nil {
		d.quarantined.Inc()
	}
}

// List returns, in directory order, the names of the files ending in
// suffix with the suffix cut off. Temp and quarantined files end in
// ".tmp" and ".corrupt", so they never match an entry suffix. With the
// breaker open, or on a listing error, List returns nothing.
func (d *Disk) List(suffix string) []string {
	if d.dir == "" || !d.breaker.Allow() {
		return nil
	}
	names, err := d.fs.ReadDir(d.dir)
	d.observe(err)
	var stems []string
	for _, name := range names {
		if stem, ok := strings.CutSuffix(name, suffix); ok {
			stems = append(stems, stem)
		}
	}
	return stems
}

// observe feeds a read or listing outcome to the breaker: success and a
// missing file or directory are healthy, anything else is a failure.
func (d *Disk) observe(err error) {
	if err == nil || errors.Is(err, fs.ErrNotExist) {
		d.breaker.Success()
		return
	}
	d.fail()
}

func (d *Disk) fail() {
	d.errs.Inc()
	d.breaker.Failure()
}
