package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareMain compares two recordings (files written with --record, one
// per commit) metric by metric: each side's median and quartiles over its
// runs, and the change's median as a ratio of the base's.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: hpabench compare BASE.jsonl CHANGE.jsonl")
		return 2
	}
	var sides [2]map[string]map[string][]float64
	for i, path := range args {
		var err error
		if sides[i], err = readRecords(path); err != nil {
			fmt.Fprintf(os.Stderr, "hpabench compare: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(w, "%-12s %-26s %5s %12s %25s %12s %25s %8s\n",
		"workload", "metric", "runs", "base", "base q1..q3", "change", "change q1..q3", "ratio")
	for _, wl := range sortedKeys(sides[0]) {
		for _, name := range sortedKeys(sides[0][wl]) {
			a, b := sides[0][wl][name], sides[1][wl][name]
			if len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			fmt.Fprintf(w, "%-12s %-26s %2d/%-2d %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g %8.4f\n",
				wl, name, len(a), len(b), ma, quantile(a, 0.25), quantile(a, 0.75),
				mb, quantile(b, 0.25), quantile(b, 0.75), mb/ma)
		}
	}
	return 0
}

// readRecords loads a recording as workload → metric → values; traced
// and untraced runs share the map since their metric names differ.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct {
			Workload string             `json:"workload"`
			Values   map[string]float64 `json:"values"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[string][]float64)
		}
		for k, v := range rec.Values {
			out[rec.Workload][k] = append(out[rec.Workload][k], v)
		}
	}
	return out, sc.Err()
}
