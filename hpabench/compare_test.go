package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareReportsMediansAndRatio(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lines ...string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.jsonl",
		`{"workload":"batch-local","values":{"job_s":1.0,"alloc_mb":10}}`,
		`{"workload":"batch-local","values":{"job_s":3.0,"alloc_mb":10}}`,
		`{"workload":"batch-local","values":{"job_s":2.0,"alloc_mb":10}}`)
	change := write("change.jsonl",
		`{"workload":"batch-local","values":{"job_s":1.0}}`,
		`{"workload":"batch-local","values":{"job_s":1.0}}`)
	var out bytes.Buffer
	if code := compareMain([]string{base, change}, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	var row string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.Contains(l, "job_s") {
			row = l
		}
	}
	f := strings.Fields(row)
	if len(f) < 7 || f[0] != "batch-local" || f[2] != "3/2" || f[3] != "2" || f[len(f)-1] != "0.5000" {
		t.Errorf("job_s row %q: want 3/2 runs, base median 2, ratio 0.5", row)
	}
	if strings.Contains(out.String(), "alloc_mb") {
		t.Error("a metric the change did not record has no ratio to print")
	}
	if code := compareMain([]string{base}, &out); code != 2 {
		t.Errorf("one file: exit %d, want 2", code)
	}
}
