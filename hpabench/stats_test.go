package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 3.25}, {0.5, 5.5}, {0.75, 7.75}, {0.99, 9.91}, {1, 10},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	if got := median([]float64{4}); got != 4 {
		t.Errorf("median of one value = %v", got)
	}
}

func TestSupportedQuantileNeedsTenSamplesAbove(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {5000, 0.99}} {
		if got := supportedQuantile(c.n, 0.9, 0.99); got != c.want {
			t.Errorf("supportedQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// lags builds n send lags rising by slope per query from base.
func lags(n int, base, slope time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = base + time.Duration(i)*slope
	}
	return out
}

func TestBacklogGrowing(t *testing.T) {
	tol := time.Millisecond
	if backlogGrowing(lags(400, 3*time.Millisecond, 0), tol) {
		t.Error("a constant lag, however large, is not a growing backlog")
	}
	if !backlogGrowing(lags(400, 0, 10*time.Microsecond), tol) {
		t.Error("lag rising 10µs per query over 400 queries is a growing backlog")
	}
	if backlogGrowing(lags(400, 0, time.Microsecond), tol) {
		t.Error("a 0.3ms drift is within a 1ms tolerance")
	}
	if backlogGrowing(lags(3, 0, time.Second), tol) {
		t.Error("fewer than four queries cannot show a trend")
	}
}

func step(rate float64, lat time.Duration, failed int, lagSlope time.Duration) ladderStep {
	n := 400
	s := ladderStep{Rate: rate, Failed: failed, Lag: lags(n, 0, lagSlope)}
	for i := 0; i < n; i++ {
		s.Lat = append(s.Lat, lat)
	}
	return s
}

func TestStepMeetsObjective(t *testing.T) {
	limit := 5 * time.Millisecond
	if !step(100, time.Millisecond, 0, 0).meets(limit) {
		t.Error("fast, error-free, flat-lag step should meet the objective")
	}
	if step(100, 6*time.Millisecond, 0, 0).meets(limit) {
		t.Error("p99 above the limit should miss")
	}
	if step(100, time.Millisecond, 1, 0).meets(limit) {
		t.Error("a failed query should miss")
	}
	if step(100, time.Millisecond, 0, 20*time.Microsecond).meets(limit) {
		t.Error("a growing backlog should miss")
	}
	if (ladderStep{Rate: 100}).meets(limit) {
		t.Error("a step with no answered queries should miss")
	}
}

func TestClimbLadder(t *testing.T) {
	limit := 5 * time.Millisecond
	var tried []float64
	hiccup := true
	rung := func(rate float64) ladderStep {
		tried = append(tried, rate)
		switch {
		case rate > 1000:
			return step(rate, 10*time.Millisecond, 0, 0) // past capacity
		case rate > 500 && hiccup:
			hiccup = false
			return step(rate, 10*time.Millisecond, 0, 0) // one stall
		}
		return step(rate, time.Millisecond, 0, 0)
	}
	steps := climbLadder(400, 0.10, limit, func() bool { return len(tried) < 100 }, rung)
	for i := 1; i < len(tried); i++ {
		if r := tried[i] / tried[i-1]; r > 1.10+1e-9 {
			t.Errorf("rung %d: %v -> %v is a step of %v", i, tried[i-1], tried[i], r)
		}
	}
	last := steps[len(steps)-1]
	if last.Rate <= 1000 || last.meets(limit) {
		t.Errorf("ladder should end on the first rung past capacity, ended at %v", last.Rate)
	}
	if got := maxPassingRate(steps, limit); got <= 1000/1.1 || got > 1000 {
		t.Errorf("max passing rate %v, want the last rung at or below 1000", got)
	}
	if n := len(tried) - len(steps); n != 2 {
		t.Errorf("%d retries, want 2 (the stall and the first rung past capacity)", n)
	}
	if got := climbLadder(400, 0.10, limit, func() bool { return false }, rung); len(got) != 0 {
		t.Error("no time left should run no rung")
	}
}

func TestMaxPassingRateStopsAtFirstMiss(t *testing.T) {
	limit := 5 * time.Millisecond
	ok, slow := time.Millisecond, 10*time.Millisecond
	steps := []ladderStep{step(100, ok, 0, 0), step(110, ok, 0, 0), step(121, slow, 0, 0), step(133, ok, 0, 0)}
	if got := maxPassingRate(steps, limit); got != 110 {
		t.Errorf("max passing rate = %v, want 110 (rungs above a miss do not count)", got)
	}
	if got := maxPassingRate(steps[2:3], limit); got != 0 {
		t.Errorf("max passing rate with no passing rung = %v, want 0", got)
	}
}
