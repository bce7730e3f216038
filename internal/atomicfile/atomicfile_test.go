package atomicfile

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// onlyEntry fails the test unless dir holds exactly one file, name.
func onlyEntry(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("dir holds %v, want only %s (no temp file left behind)", names, name)
	}
}

// TestFailingWriterLeavesOldFile: a writer that fails after writing part
// of its output leaves the old file byte-identical and no temp file.
func TestFailingWriterLeavesOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot")
	const old = "the previous, complete contents\n"
	if err := os.WriteFile(path, []byte(old), 0o600); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, 0o600, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half a new"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want the writer's error", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != old {
		t.Fatalf("failed write changed the file to %q", b)
	}
	onlyEntry(t, dir, "snapshot")
}

// TestWriteSetsMode: a write replaces an existing file's contents and
// mode; artifacts are world-readable (0644) and the daemon's cache
// snapshot is private (0600).
func TestWriteSetsMode(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name      string
		prev, new fs.FileMode
	}{
		{"artifact", 0o600, 0o644},
		{"snapshot", 0o644, 0o600},
	} {
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, []byte("old"), c.prev); err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(path, c.prev); err != nil {
			t.Fatal(err)
		}
		if err := Write(path, c.new, writeString("new")); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != "new" || st.Mode().Perm() != c.new {
			t.Errorf("%s: content %q mode %v, want %q mode %v", c.name, b, st.Mode().Perm(), "new", c.new)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("dir holds %d entries, want 2 (no temp file left behind)", len(entries))
	}
}
