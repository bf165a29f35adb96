package snapshot

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FS abstracts the four filesystem operations of a crash-safe snapshot
// write. The method signatures use only stdlib types so fault injectors
// (internal/faults.DiskPlan) can implement the interface without importing
// this package.
type FS interface {
	// WriteTemp creates a uniquely named file in dir from pattern (as
	// os.CreateTemp), writes data, fsyncs, closes, and returns the path.
	WriteTemp(dir, pattern string, data []byte) (string, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// SyncDir fsyncs the directory so the rename itself is durable.
	SyncDir(dir string) error
	// Remove deletes a file; used to clean up a temp file whose rename
	// failed.
	Remove(path string) error
}

// OSFS is the real-filesystem FS.
type OSFS struct{}

// WriteTemp implements FS using os.CreateTemp + Write + Sync.
func (OSFS) WriteTemp(dir, pattern string, data []byte) (string, error) {
	return writeTemp(dir, pattern, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// writeTemp creates a uniquely named file in dir from pattern, hands it to
// write, fsyncs and closes it, and returns its path. On any failure it
// removes the file.
func writeTemp(dir, pattern string, write func(io.Writer) error) (string, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return "", err
	}
	name := f.Name()
	cleanup := func(err error) (string, error) {
		f.Close()
		os.Remove(name)
		return "", err
	}
	if err := write(f); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(name)
		return "", err
	}
	return name, nil
}

// Rename implements FS with os.Rename.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// SyncDir implements FS by fsyncing the directory file descriptor.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Remove implements FS with os.Remove.
func (OSFS) Remove(path string) error { return os.Remove(path) }

// Save writes the store to path crash-safely: encode, write to a
// same-directory temp file, fsync, atomically rename over path, fsync the
// directory. A crash at any point leaves either the old snapshot or the
// new one, never a torn file at path.
func Save(path string, st *Store) error {
	return SaveFS(OSFS{}, path, st)
}

// SaveFS is Save over an injectable filesystem, for fault testing.
func SaveFS(fsys FS, path string, st *Store) error {
	data, err := Encode(st)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := fsys.WriteTemp(dir, ".snapshot-*.tmp", data)
	if err != nil {
		return fmt.Errorf("snapshot: write temp in %s: %w", dir, err)
	}
	return commit(fsys, tmp, path)
}

// SaveShards writes a snapshot of len(kinds) shards to path as crash-safely
// as Save, one shard at a time: it calls next(i) for shard i, in order, and
// streams that shard into the temp file before it asks for the next. A
// caller that builds each shard inside next and keeps nothing of it holds
// at most one shard's pointer structure at a time. The bytes equal Encode's
// for a store of the same shards, and the returned Binding names them. An
// error from next aborts the save, after any shards, and is returned as is.
func SaveShards(path string, generation uint64, kinds []Kind, next func(i int) (Shard, error)) (Binding, error) {
	var bind Binding
	tmp, err := writeTemp(filepath.Dir(path), ".snapshot-*.tmp", func(w io.Writer) (err error) {
		bind, err = encodeShards(w, generation, kinds, next)
		return err
	})
	if err != nil {
		return Binding{}, err
	}
	return bind, commit(OSFS{}, tmp, path)
}

// commit renames a written temp file over path and fsyncs the directory,
// so the rename itself is durable.
func commit(fsys FS, tmp, path string) error {
	if err := fsys.Rename(tmp, path); err != nil {
		// Best effort: the temp file is garbage either way; the previous
		// file at path is untouched.
		_ = fsys.Remove(tmp)
		return fmt.Errorf("snapshot: rename %s -> %s: %w", tmp, path, err)
	}
	dir := filepath.Dir(path)
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("snapshot: sync %s: %w", dir, err)
	}
	return nil
}

// Load reads and decodes the snapshot at path. A missing or unreadable
// file returns the underlying I/O error (IsCorrupt reports false);
// undecodable contents return a *CorruptionError (IsCorrupt reports
// true). Either way the caller's move is the same: rebuild from source.
func Load(path string) (*Store, error) {
	return LoadParallel(path, 1)
}

// LoadParallel is Load with the restore re-validation fanned out over
// parallelism host workers (0 = all cores); see DecodeParallel.
func LoadParallel(path string, parallelism int) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeParallel(data, parallelism)
}
