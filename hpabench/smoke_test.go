package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// smoke runs a workload at a tenth of its size for a one-second window
// and checks the result line is complete, finite and correct.
func smoke(t *testing.T, workload string, trace bool) *run {
	t.Helper()
	var out bytes.Buffer
	r := newRun(workload, 7, time.Second, trace, t.TempDir(), &out)
	defer r.pool.Close()
	r.setups, r.minOps = 1, 1
	if err := workloads[workload](r, 0.1); err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	r.report()
	res := r.result()
	defs := e2eMetrics
	if trace {
		defs = layerMetrics
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
		t.Fatalf("%s trace=%v: result %+v\n%s", workload, trace, res, out.String())
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) {
			t.Errorf("%s: metric %s = %+v", workload, d.Name, m)
		}
		if !trace && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s is %v, want > 0", workload, d.Name, m.Value)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	return r
}

// positive fails unless every named value of the run is > 0.
func positive(t *testing.T, r *run, names ...string) {
	t.Helper()
	for _, n := range names {
		if r.values[n] <= 0 {
			t.Errorf("%s: %s = %v, want > 0", r.workload, n, r.values[n])
		}
	}
}

var replayMetrics = []string{"pario.read_s", "pario.read_mb", "text.tokenize_s", "text.tokens", "dict.terms",
	"dict.footprint_mb", "tfidf.count_s", "tfidf.transform_s", "tfidf.nnz", "kmeans.seed_s",
	"kmeans.seed_rounds", "kmeans.assign_s", "kmeans.iterations", "workflow.tasks", "workflow.task_s"}

func TestSmokeBatchLocal(t *testing.T) {
	r := smoke(t, "batch-local", false)
	if _, ok := r.values["wire_mb"]; ok {
		t.Error("batch-local reports wire traffic it cannot have")
	}
	r = smoke(t, "batch-local", true)
	positive(t, r, replayMetrics...)
	if _, ok := r.values["rpc.calls"]; ok {
		t.Error("batch-local reports RPC calls it cannot make")
	}
}

func TestSmokeBatchRPC(t *testing.T) {
	r := smoke(t, "batch-rpc", false)
	positive(t, r, "wire_mb")
	r = smoke(t, "batch-rpc", true)
	positive(t, r, replayMetrics...)
	positive(t, r, "rpc.calls", "rpc.roundtrip_s", "wire.args_mb", "wire.reply_mb")
}

func TestSmokeServe(t *testing.T) {
	r := smoke(t, "serve", false)
	positive(t, r, "query_p50_ms", "query_p99_ms", "publish_s")
	r = smoke(t, "serve", true)
	positive(t, r, replayMetrics...)
	positive(t, r, "serve.vectorize_us", "serve.topk_us", "serve.postings_per_query",
		"serve.publish_run_ms", "simsearch.build_s")
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// metric and workload lists in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, sortedKeys(workloads); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", got, want)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eMetrics)
	same("per_layer", b.PerLayer, layerMetrics)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
