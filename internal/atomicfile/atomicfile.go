// Package atomicfile replaces files so that a crash or a power loss
// leaves either the previous contents or the new ones on disk — never an
// empty, short or half-written file. Every state file the system keeps
// (fleet and coordinator snapshots, cumulative histories, patch files)
// is written through it.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write replaces path with what write produces, with permissions perm.
// write fills a temporary file in path's directory; the file is synced,
// closed and renamed over path, and the directory is synced so the
// rename itself survives a power loss. If write or any step before the
// rename fails, path keeps its previous contents and the temporary file
// is removed.
func Write(path string, perm os.FileMode, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	// After a successful rename the name is gone and Remove is a no-op.
	defer os.Remove(tmp.Name())
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// The directory is only read; its Sync error is the one that counts.
	defer d.Close()
	return d.Sync()
}
