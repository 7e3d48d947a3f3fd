package atomicfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFailureKeepsOldFile: a write callback that fails — here after
// writing half its output — leaves the target byte-identical and no
// temporary file behind.
func TestWriteFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	old := []byte("previous complete state")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encoder failed")
	err := Write(path, 0o600, func(w io.Writer) error {
		if _, err := w.Write([]byte("half of the new")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want the callback's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("target changed on a failed write: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v after a failed write, want only the target", names)
	}
}

// TestWriteReplacesFile: on success the target holds exactly the new
// contents with the requested permissions, whether it existed before or
// not, and nothing else is left in the directory.
func TestWriteReplacesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "patches.xtp")
	for _, want := range []string{"first version", "second, longer version", "third"} {
		if err := Write(path, 0o644, func(w io.Writer) error {
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
			t.Fatalf("file holds %q, want %q", got, want)
		}
		if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
			t.Fatalf("file mode %v (%v), want -rw-r--r--", fi.Mode(), err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory after successful writes: %d entries, %v", len(entries), err)
	}
}
