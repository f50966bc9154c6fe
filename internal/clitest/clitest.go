// Package clitest is the golden end-to-end harness for the repo's
// command binaries: build the command, run it with fixed flags,
// normalize stdout, and compare against a checked-in golden file so
// CLI output regressions — a changed schedule, a broken table, a
// renamed column — fail loudly. Every simulated quantity the commands
// print is deterministic (worker-count- and machine-independent by
// the repo's core invariants), which is what makes byte-exact goldens
// tenable.
package clitest

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Build compiles the command package in dir (default ".") into a
// temporary binary and returns its path.
//
// A golden test calls none of the command's code itself, so the
// linker drops all of it from the test binary, and Go's test cache,
// which keys on that binary and the files the test opens, would report
// a cached pass after any change to the command or the packages it
// uses. Build therefore also opens every non-test .go file under the
// module's internal/ and cmd/, which makes them inputs of the test.
func Build(t *testing.T, dir string) string {
	t.Helper()
	if dir == "" {
		dir = "."
	}
	if err := openSources(dir); err != nil {
		t.Fatalf("opening the module's sources: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "cmd.bin")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// openSources opens and closes every non-test .go file under internal/
// and cmd/ of the module that contains dir.
func openSources(dir string) error {
	root, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return fmt.Errorf("no go.mod above %s", dir)
		}
		root = parent
	}
	for _, sub := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, sub), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			return f.Close()
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Run executes the binary with the given arguments and returns its
// normalized stdout. A non-zero exit or any stderr output fails the
// test.
func Run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\nstderr: %s", filepath.Base(bin), strings.Join(args, " "), err, stderr.String())
	}
	if stderr.Len() > 0 {
		t.Fatalf("%s wrote to stderr: %s", filepath.Base(bin), stderr.String())
	}
	return Normalize(stdout.String())
}

// RunFail executes the binary, expecting it to refuse its arguments:
// exit status 1 with nothing on stdout. It returns stderr, the
// refusal message.
func RunFail(t *testing.T, bin string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != 1 {
		t.Fatalf("%s %s: %v, want exit status 1", filepath.Base(bin), strings.Join(args, " "), err)
	}
	if stdout.Len() > 0 {
		t.Fatalf("%s %s printed before refusing its arguments:\n%s", filepath.Base(bin), strings.Join(args, " "), stdout.String())
	}
	return stderr.String()
}

// Normalize strips trailing whitespace per line and trailing blank
// lines, and canonicalizes line endings — the only variance a golden
// comparison should forgive.
func Normalize(s string) string {
	s = strings.ReplaceAll(s, "\r\n", "\n")
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = strings.TrimRight(lines[i], " \t")
	}
	out := strings.Join(lines, "\n")
	return strings.TrimRight(out, "\n") + "\n"
}

// Golden compares got against the golden file, rewriting it instead
// when update is true. The diff report shows the first divergent line
// so a regression is readable without external tooling.
func Golden(t *testing.T, goldenPath string, got string, update bool) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", goldenPath)
		return
	}
	wantBytes, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (rerun with -update): %v", err)
	}
	want := Normalize(string(wantBytes))
	if got == want {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		g, w := "", ""
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("output diverges from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update to accept)",
				goldenPath, i+1, g, w)
		}
	}
	t.Fatalf("output differs from %s in line count only: got %d, want %d",
		goldenPath, len(gotLines), len(wantLines))
}
