package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks (the "R-7" rule, which is what
// numpy's default and Python's statistics.quantiles(method="inclusive")
// compute). xs is not modified. An empty sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// supportedQuantile returns the highest of the candidate quantiles that
// leaves at least ten samples above it — the highest percentile a sample
// of n values can report honestly. It returns 0.5 when even the median
// lacks that support.
func supportedQuantile(n int, candidates ...float64) float64 {
	best := 0.5
	for _, q := range candidates {
		if float64(n)*(1-q) >= 10-1e-9 && q > best { // tolerate 1-0.9 != 0.1
			best = q
		}
	}
	return best
}

// ladderStep is the outcome of one constant-rate step of the query-rate
// ladder.
type ladderStep struct {
	Rate   float64         // nominal queries per second
	Lat    []time.Duration // per query, measured from its due time
	Lag    []time.Duration // per query, send time minus due time
	Failed int             // errored, shed or wrong answers
}

// backlogGrowing reports whether the generator fell further and further
// behind its schedule during a step: the mean send lag over the last
// quarter of the step's queries exceeds the first quarter's by more than
// tol. A server keeping up shows flat lag whatever its absolute level; one
// that cannot keep up accumulates a queue, so lag rises linearly in time.
func backlogGrowing(lags []time.Duration, tol time.Duration) bool {
	n := len(lags) / 4
	if n == 0 {
		return false
	}
	var first, last time.Duration
	for i := 0; i < n; i++ {
		first += lags[i]
		last += lags[len(lags)-n+i]
	}
	return (last-first)/time.Duration(n) > tol
}

// meets reports whether a step satisfies the serving objective: no failed
// queries, p99 latency within limit, and no growing backlog.
func (s ladderStep) meets(limit time.Duration) bool {
	if s.Failed > 0 || len(s.Lat) == 0 {
		return false
	}
	if quantile(seconds(s.Lat), 0.99) > limit.Seconds() {
		return false
	}
	return !backlogGrowing(s.Lag, limit/2)
}

// climbLadder runs constant-rate rungs from start, each step (e.g. 0.10)
// above the last, while more allows, until a rung misses the objective
// twice in a row. A rung holds few queries, so one scheduling hiccup can
// decide its p99; the retry keeps a single stall from ending the ladder.
// A missed rung that passes on retry is replaced by its retry.
func climbLadder(start, step float64, limit time.Duration, more func() bool, rung func(rate float64) ladderStep) []ladderStep {
	var steps []ladderStep
	rate, retried := start, false
	for more() {
		s := rung(rate)
		if !s.meets(limit) && !retried {
			retried = true
			continue
		}
		steps = append(steps, s)
		if !s.meets(limit) {
			break
		}
		rate, retried = rate*(1+step), false
	}
	return steps
}

// maxPassingRate walks steps in ladder order and returns the highest rate
// reached before the first step that misses the objective (0 when the
// first step already misses). Later steps are ignored: a rung above a
// failure is not trusted, since its queue started behind.
func maxPassingRate(steps []ladderStep, limit time.Duration) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.meets(limit) {
			break
		}
		best = s.Rate
	}
	return best
}
