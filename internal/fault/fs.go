package fault

import (
	"os"
	"path/filepath"
)

// FS is the filesystem surface the content-addressed stores' disk
// layer (memo.Disk) depends on. The production implementation is OS;
// tests and chaos runs substitute InjectFS to make disk failures
// reachable on demand.
type FS interface {
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	MkdirAll(path string, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// ReadDir lists the file names in dir (sorted, as os.ReadDir
	// guarantees). memo.Disk.List uses it to manifest a store's
	// on-disk keys for anti-entropy repair.
	ReadDir(dir string) ([]string, error)
}

// OS is the real filesystem.
type OS struct{}

func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (OS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names, nil
}

// InjectFS decorates an FS with injected disk faults. Sites are the
// base name of the path (stable across temp directories), so a seeded
// plan selects the same cache entries in every run. Real errors from
// the wrapped FS always propagate — a wrapper that swallowed them
// would hide the very failures this package exists to exercise, and
// catchlint's error-hygiene analyzer enforces that invariant on every
// decorator in this package.
type InjectFS struct {
	FS  FS
	Inj *Injector
}

// site maps a path to its injection site: the base file name.
func site(name string) string { return filepath.Base(name) }

func (f InjectFS) ReadFile(name string) ([]byte, error) {
	if f.Inj.Fire(DiskRead, site(name)) {
		return nil, f.Inj.Err(DiskRead, site(name))
	}
	data, err := f.FS.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if f.Inj.Fire(Corrupt, site(name)) {
		return CorruptBytes(data), nil
	}
	return data, nil
}

func (f InjectFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	if f.Inj.Fire(DiskWrite, site(name)) {
		return f.Inj.Err(DiskWrite, site(name))
	}
	return f.FS.WriteFile(name, data, perm)
}

func (f InjectFS) MkdirAll(path string, perm os.FileMode) error {
	return f.FS.MkdirAll(path, perm)
}

func (f InjectFS) Rename(oldpath, newpath string) error {
	if f.Inj.Fire(DiskWrite, site(newpath)) {
		return f.Inj.Err(DiskWrite, site(newpath))
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f InjectFS) Remove(name string) error {
	return f.FS.Remove(name)
}

func (f InjectFS) ReadDir(dir string) ([]string, error) {
	if f.Inj.Fire(DiskRead, site(dir)) {
		return nil, f.Inj.Err(DiskRead, site(dir))
	}
	return f.FS.ReadDir(dir)
}
