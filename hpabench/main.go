// Command hpabench is the repository's benchmark: the paper's TF/IDF→K-Means
// workflow as batch jobs on the local and RPC backends, and the resident
// query service under an open-loop query stream. It drives the program
// only through its packages' public functions, checks every operation's
// output, and prints one JSON result line last.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash hpabench/run.sh --workload batch-local --seed 1 --seconds 20 --trace 0
//	bash hpabench/run.sh --workload serve --seed 2 --seconds 20 --trace 1 --record runs.jsonl
//	bash hpabench/run.sh compare base.jsonl change.jsonl
//
// See README.md for the workloads, the metrics and how to compare commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hpa/internal/corpus"
	"hpa/internal/par"
)

// procs is the GOMAXPROCS every run pins, so recordings from machines with
// different core counts measure the same parallelism.
const procs = 2

// e2eMetrics are the end-to-end metrics of BENCHMARK.json, reported on
// every workload by an untraced run.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"job_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// workloadMetrics are end-to-end metrics that exist on some workloads
// only. They are printed in the table and recorded, not gated.
var workloadMetrics = []metricDef{
	{"wire_mb", "MB"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"query_max_qps", "1/s"},
	{"publish_s", "s"},
	{"failed_frac", "ratio"},
}

// layerMetrics are the per-layer metrics of BENCHMARK.json, reported by a
// traced run: the layers every workload exercises.
var layerMetrics = []metricDef{
	{"pario.read_s", "s"},
	{"pario.read_mb", "MB"},
	{"text.tokenize_s", "s"},
	{"text.tokens", "count"},
	{"dict.terms", "count"},
	{"dict.footprint_mb", "MB"},
	{"tfidf.count_s", "s"},
	{"tfidf.merge_s", "s"},
	{"tfidf.transform_s", "s"},
	{"tfidf.nnz", "count"},
	{"kmeans.seed_s", "s"},
	{"kmeans.seed_rounds", "count"},
	{"kmeans.assign_s", "s"},
	{"kmeans.update_s", "s"},
	{"kmeans.iterations", "count"},
	{"kmeans.prune_skip_ratio", "ratio"},
	{"workflow.tasks", "count"},
	{"workflow.task_s", "s"},
	{"workflow.overhead_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
}

// workloadLayerMetrics are per-layer metrics of layers only one workload
// exercises (the wire on batch-rpc, the serving path on serve). The traced
// run prints and records them; they stay out of BENCHMARK.json, where a
// layer time that reads 0 on every run of the other workloads would look
// like a constant.
var workloadLayerMetrics = []metricDef{
	{"rpc.calls", "count"},
	{"rpc.roundtrip_s", "s"},
	{"wire.args_mb", "MB"},
	{"wire.reply_mb", "MB"},
	{"serve.vectorize_us", "us"},
	{"serve.topk_us", "us"},
	{"serve.http_us", "us"},
	{"serve.postings_per_query", "count"},
	{"serve.publish_queue_ms", "ms"},
	{"serve.publish_run_ms", "ms"},
	{"simsearch.build_s", "s"},
	{"loadgen.lag_p99_ms", "ms"},
}

type metricDef struct{ Name, Unit string }

// workloads maps a workload name to its runner; scale shrinks the inputs
// (1 in every recorded run, smaller in the smoke tests).
var workloads = map[string]func(r *run, scale float64) error{
	"batch-local": func(r *run, scale float64) error {
		return runBatch(r, batchSpec{corpus: corpus.Mix().Scaled(0.1 * scale), k: 8, shards: -1})
	},
	"batch-rpc": func(r *run, scale float64) error {
		return runBatch(r, batchSpec{corpus: rpcCorpus(scale), k: 64, shards: 4, workers: 2})
	},
	"serve": func(r *run, scale float64) error {
		return runServe(r, serveSpecFor(scale))
	},
}

// rpcCorpus is NSF Abstracts at 1%: its document count, lengths, word
// distribution and vocabulary.
func rpcCorpus(scale float64) corpus.Spec {
	return corpus.NSFAbstracts().Scaled(0.01 * scale)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark invocation's state and findings.
type run struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	setups   int // set-ups per run; setup_s is their median
	minOps   int // operations measured even past the window
	work     string
	pool     *par.Pool
	out      io.Writer // human-readable report

	attempted, failed int
	values            map[string]float64 // end-to-end and per-layer values by name
	notes             []string
}

func newRun(workload string, seed uint64, window time.Duration, trace bool, work string, out io.Writer) *run {
	setups := 5
	if trace {
		setups = 1 // a traced run reports no setup_s
	}
	return &run{
		workload: workload, seed: seed, window: window, trace: trace,
		setups: setups, minOps: 3, work: work, out: out,
		pool:   par.NewPool(runtime.GOMAXPROCS(0)),
		values: make(map[string]float64),
	}
}

// count records one attempted operation; it returns whether it succeeded.
func (r *run) count(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.out, "operation failed: %v\n", err)
		return false
	}
	return true
}

// more reports whether a measuring loop should run another operation:
// until the deadline, and past it until minOps have succeeded — unless
// minOps have failed, so a broken program cannot keep a run going.
func (r *run) more(deadline time.Time, succeeded int) bool {
	return time.Now().Before(deadline) || (succeeded < r.minOps && r.failed < r.minOps)
}

// set records a measured value under its metric name.
func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result assembles the output line: the end-to-end metrics of an untraced
// run or the per-layer metrics of a traced one.
func (r *run) result() result {
	defs := e2eMetrics
	if r.trace {
		defs = layerMetrics
	}
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v := r.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			res.Correct = false
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return res
}

// report prints the human-readable table: every metric of the run's kind
// by name and unit, "n/a" where the workload has no such quantity.
func (r *run) report() {
	if r.attempted > 0 {
		r.values["failed_frac"] = float64(r.failed) / float64(r.attempted)
	}
	defs := append(append([]metricDef(nil), e2eMetrics...), workloadMetrics...)
	title := "end-to-end metrics"
	if r.trace {
		defs = append(append([]metricDef(nil), layerMetrics...), workloadLayerMetrics...)
		title = "per-layer metrics (traced run)"
	}
	fmt.Fprintf(r.out, "%s, workload %s:\n", title, r.workload)
	for _, d := range defs {
		if v, ok := r.values[d.Name]; ok {
			fmt.Fprintf(r.out, "  %-26s %14.6g %s\n", d.Name, v, d.Unit)
		} else {
			fmt.Fprintf(r.out, "  %-26s %14s %s\n", d.Name, "n/a", d.Unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(r.out, "  note: %s\n", n)
	}
	fmt.Fprintf(r.out, "  operations: %d attempted, %d failed\n", r.attempted, r.failed)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("hpabench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: batch-local, batch-rpc or serve")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	secs := fs.Int("seconds", 20, "length of the measurement window")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	record := fs.String("record", "", "append the full record (environment, every metric) to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "hpabench: need --workload (batch-local|batch-rpc|serve), --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(procs)
	// Inputs and outputs stay inside the checkout, next to the build.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "hpabench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpabench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	r := newRun(*workload, *seed, time.Duration(*secs)*time.Second, *trace == 1, work, stdout)
	defer r.pool.Close()
	st := stamp(r.seed)
	fmt.Fprintf(stdout, "hpabench %s seed=%d seconds=%d trace=%d\n%s\n", r.workload, r.seed, *secs, *trace, st)
	if err := workloads[r.workload](r, 1); err != nil {
		fmt.Fprintf(os.Stderr, "hpabench: %s: %v\n", r.workload, err)
		return 1
	}
	r.report()
	res := r.result()
	if *record != "" {
		if err := appendRecord(*record, r, st, res); err != nil {
			fmt.Fprintf(os.Stderr, "hpabench: record: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpabench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// appendRecord appends one JSON line holding the environment stamp and
// every value the run measured.
func appendRecord(path string, r *run, st envStamp, res result) error {
	rec := struct {
		Workload string             `json:"workload"`
		Trace    bool               `json:"trace"`
		Env      envStamp           `json:"env"`
		Correct  bool               `json:"correct"`
		Values   map[string]float64 `json:"values"`
	}{r.workload, r.trace, st, res.Correct, make(map[string]float64)}
	for k, v := range r.values {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			rec.Values[k] = v
		}
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
