package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// wantFindings lists path:line for every fixture line carrying a trailing
// "// want" comment: the lines parcheck must report, and no others.
func wantFindings(t *testing.T, files ...string) []string {
	t.Helper()
	var want []string
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if strings.HasSuffix(sc.Text(), "// want") {
				want = append(want, fmt.Sprintf("%s:%d", path, line))
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(want)
	return want
}

// TestFixtureFindings runs parcheck over the fixture tree: a root context
// in internal/ library code is reported unless a "ctx:" comment marks it
// (a "par:" comment does not), context.TODO() likewise, test files and
// code outside internal/ may start root contexts, and an unmarked par
// discard is reported while a "par:"-marked one is not.
func TestFixtureFindings(t *testing.T) {
	lib := filepath.Join("testdata", "internal", "lib")
	roots := []string{filepath.Join("testdata", "internal"), filepath.Join("testdata", "cmd")}
	var out bytes.Buffer
	bad, err := run(roots, &out)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		pos, msg, _ := strings.Cut(line, ": ")
		got = append(got, pos)
		if !strings.Contains(msg, "context.") && !strings.Contains(msg, "par.") {
			t.Errorf("finding %q names neither a context nor a par call", line)
		}
	}
	sort.Strings(got)
	want := wantFindings(t, filepath.Join(lib, "lib.go"), filepath.Join(lib, "lib_test.go"),
		filepath.Join("testdata", "cmd", "tool", "main.go"))
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant findings at:\n%s", out.String(), strings.Join(want, "\n"))
	}
	if bad != len(want) {
		t.Fatalf("run counted %d findings, reported %d", bad, len(want))
	}
}

// TestWalkSkipsTestdata: a walk from this package's directory skips the
// fixture tree, whose findings are deliberate.
func TestWalkSkipsTestdata(t *testing.T) {
	var out bytes.Buffer
	bad, err := run([]string{"."}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d findings outside testdata:\n%s", bad, out.String())
	}
}
