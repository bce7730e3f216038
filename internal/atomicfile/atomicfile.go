// Package atomicfile replaces files whole: a reader of the path sees the
// old bytes or the new ones, never a torn mix, whether the writer fails,
// the run is canceled, or the process dies mid-write. Every artifact the
// repo writes (golden tables, benchmark baselines, interchange documents,
// the daemon's cache snapshot) goes through Write.
package atomicfile

import (
	"bufio"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// Write streams write's output through a buffer into a temp file in
// path's directory, syncs it, gives it mode perm and renames it over
// path. If any step fails, path keeps its old contents and the temp file
// is removed.
func Write(path string, perm fs.FileMode, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriter(tmp)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Chmod(perm)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
