package main

import (
	"fmt"
	"math"
	"time"
)

// replayLayers are the replay's span names in job order, each with the
// per-layer metric its self time feeds ("" for a row that is printed in
// the reconciliation table but is no metric).
var replayLayers = []struct{ span, metric string }{
	{"pario.read", "pario.read_s"},
	{"text.tokenize", "text.tokenize_s"},
	{"tfidf.count", "tfidf.count_s"},
	{"tfidf.merge", "tfidf.merge_s"},
	{"tfidf.transform", "tfidf.transform_s"},
	{"kmeans.seed", "kmeans.seed_s"},
	{"kmeans.assign", "kmeans.assign_s"},
	{"kmeans.update", "kmeans.update_s"},
	{"workflow.output", ""},
}

// layerTimes returns one replay's self times in seconds by span name,
// with the tokenizer pass taken out of tfidf.count: CountShard tokenizes
// as it counts, and the pass measured that part on its own.
func layerTimes(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for name, d := range selfTimes(spans) {
		out[name] = d.Seconds()
	}
	out["tfidf.count"] -= out["text.tokenize"]
	return out
}

// setReplayLayers sets the layer metrics a replay measures: median self
// times over rounds, and the last replay's counts (they repeat exactly).
func (r *run) setReplayLayers(self map[string][]float64, last *replayResult) {
	for _, l := range replayLayers {
		if l.metric != "" {
			r.set(l.metric, median(self[l.span]))
		}
	}
	if last == nil {
		return
	}
	r.set("pario.read_mb", float64(last.readBytes)/1e6)
	r.set("text.tokens", float64(last.tokens))
	r.set("dict.terms", float64(last.terms))
	r.set("dict.footprint_mb", float64(last.footprint)/1e6)
	r.set("tfidf.nnz", float64(last.nnz))
	r.set("kmeans.seed_rounds", float64(last.seedRounds))
	r.set("kmeans.iterations", float64(last.iterations))
	r.set("kmeans.prune_skip_ratio", last.skipRatio)
}

// reconcile sets workflow.overhead_s — the untraced job's wall time minus
// the layers' self times, the part of the job no layer explains — and
// prints the reconciliation table: layer self times plus the overhead row
// add up to the untraced job time; the traced wall time and the tracing
// overhead follow.
func (r *run) reconcile(self map[string][]float64, untracedJob, replayWall, probedJob float64) {
	sum := 0.0
	for _, l := range replayLayers {
		sum += median(self[l.span])
	}
	overhead := untracedJob - sum
	r.set("workflow.overhead_s", overhead)
	w := r.out
	fmt.Fprintf(w, "reconciliation, workload %s (medians over rounds):\n", r.workload)
	fmt.Fprintf(w, "  %-28s %12s %8s\n", "layer", "self_s", "share")
	row := func(name string, v float64) {
		fmt.Fprintf(w, "  %-28s %12.6f %7.1f%%\n", name, v, 100*v/untracedJob)
	}
	for _, l := range replayLayers {
		row(l.span, median(self[l.span]))
	}
	row("workflow.overhead_s", overhead)
	fmt.Fprintf(w, "  %-28s %12.6f\n", "= untraced job_s", untracedJob)
	fmt.Fprintf(w, "  %-28s %12.6f  (replay glue outside any layer: %s)\n", "traced wall (replay)",
		replayWall, time.Duration(median(self["job"])*1e9).Round(time.Microsecond))
	fmt.Fprintf(w, "  %-28s %+12.6f  (traced job_s - untraced job_s)\n", "tracing overhead", replayWall-untracedJob)
	if !math.IsNaN(probedJob) {
		fmt.Fprintf(w, "  %-28s %+12.6f  (job through the task probe - untraced job_s)\n", "task-probe overhead", probedJob-untracedJob)
	}
}
