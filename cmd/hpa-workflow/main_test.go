package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMissingScratchDirFailsFast: a -scratch directory that does not
// exist is rejected before any work runs — the command exits non-zero
// with a message naming the directory, instead of running the whole
// workflow and failing only when it writes clusters.tsv.
func TestMissingScratchDirFailsFast(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "hpa-workflow")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	// A small valid corpus, so a late check would let the whole workflow
	// run before failing.
	corpusDir := t.TempDir()
	for i, text := range []string{
		"alpha beta gamma delta", "beta gamma epsilon zeta",
		"gamma delta eta theta", "delta alpha iota kappa",
	} {
		name := filepath.Join(corpusDir, fmt.Sprintf("doc%d.txt", i))
		if err := os.WriteFile(name, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	notDir := filepath.Join(tmp, "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, scratch := range []string{filepath.Join(tmp, "missing"), notDir} {
		out, err := exec.Command(bin, "-in", corpusDir, "-scratch", scratch, "-k", "2").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("-scratch %s: err = %v, want a non-zero exit\n%s", scratch, err, out)
		}
		if !strings.Contains(string(out), scratch) {
			t.Errorf("-scratch %s: message does not name the directory:\n%s", scratch, out)
		}
		if strings.Contains(string(out), "clusters.tsv") {
			t.Errorf("-scratch %s: failed late, after running the workflow:\n%s", scratch, out)
		}
	}
}
