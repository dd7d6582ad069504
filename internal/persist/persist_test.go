package persist

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// dirNames lists dir's entries by name.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestWriteFileReplaces writes a new file, replaces it, and checks the
// contents, the 0644 mode and that no temp file is left beside it.
func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, want := range []string{"first\n", "second\n"} {
		if err := WriteFile(path, func(w io.Writer) error {
			_, err := io.WriteString(w, want)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("contents = %q, want %q", got, want)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want 0644", fi.Mode().Perm())
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Errorf("dir holds %v, want only state.json", names)
	}
}

// TestWriteFileRenameFailure points the helper at a non-empty directory,
// which rename cannot replace: the error comes back, the directory is
// untouched and no temp file is left behind.
func TestWriteFileRenameFailure(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "occupied")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(target, "keep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteFile(target, func(w io.Writer) error {
		_, err := io.WriteString(w, "payload")
		return err
	})
	if err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "occupied" {
		t.Errorf("dir holds %v after a failed rename, want only the target", names)
	}
	if names := dirNames(t, target); len(names) != 1 || names[0] != "keep" {
		t.Errorf("target holds %v, want it untouched", names)
	}
}

// TestWriteFileWriterError checks that an error from the write function
// is returned as is, and that the old file and no temp file remain.
func TestWriteFileWriterError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encode failed")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "half")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old" {
		t.Errorf("target = %q after a failed write, want %q", got, "old")
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Errorf("dir holds %v, want only state.json", names)
	}
}
