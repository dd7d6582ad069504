// Package persist is the one way this repository replaces a file on
// disk: the new contents go to a uniquely named temp file beside the
// target, which is closed, made 0644 and renamed over the target. A
// reader therefore sees the old file or the new one, never a partial
// write, and concurrent writers of the same path cannot collide on a
// temp name. No fsync is issued yet, so the rename is atomic against a
// crashed process but not against a power loss.
package persist

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile replaces path with whatever write produces. On any failure
// — write returning an error, or the close, chmod or rename failing —
// the temp file is removed, the target is left as it was and the error
// is returned unwrapped for the caller to name. The target's directory
// must exist.
func WriteFile(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp.Name(), 0o644)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
