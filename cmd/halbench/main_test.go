package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the halbench binary built once for the whole package: exit codes
// are only observable on a real process (go run collapses every nonzero
// status to 1).
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "halbench-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "halbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestExitCodes pins halbench's process contract: an experiment prints its
// table and exits 0; an unknown experiment or flag is a usage error, exit 2.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		args []string
		code int
		out  string // substring of stdout (exit 0) or stderr
	}{
		{[]string{"-quick", "tab1"}, 0, "=== Table I:"},
		{[]string{"-quick", "fig99"}, 2, `unknown experiment "fig99"`},
		{[]string{"-baseline", "x", "tab1"}, 2, "flag provided but not defined: -baseline"},
	}
	for _, c := range cases {
		cmd := exec.Command(bin, c.args...)
		cmd.Dir = t.TempDir()
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		code := 0
		var ee *exec.ExitError
		if err := cmd.Run(); errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("halbench %v: %v", c.args, err)
		}
		text := errb.String()
		if c.code == 0 {
			text = out.String()
		}
		if code != c.code || !strings.Contains(text, c.out) {
			t.Errorf("halbench %s: exit %d, want %d with %q\nstdout:\n%s\nstderr:\n%s",
				strings.Join(c.args, " "), code, c.code, c.out, out.String(), errb.String())
		}
	}
}
