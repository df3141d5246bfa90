package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractCoveredChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "job", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Start: at(30), End: at(60)}, // overlaps a by 10ms
		{ID: 4, Parent: 3, Name: "c", Start: at(50), End: at(70)}, // sticks out of b by 10ms
		{ID: 5, Parent: 1, Name: "a", Start: at(90), End: at(95)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"job": 100*time.Millisecond - 55*time.Millisecond, // children cover [10,60) and [90,95)
		"a":   35 * time.Millisecond,
		"b":   20 * time.Millisecond, // c covers [50,60) of b
		"c":   20 * time.Millisecond,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := &tracer{}
	root := tr.begin("job", 0)
	tr.do("layer", root, func() { time.Sleep(time.Millisecond) })
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].Parent != 0 {
		t.Fatalf("spans %+v", tr.spans)
	}
	self := selfTimes(tr.spans)
	if self["layer"] < time.Millisecond || self["job"] < 0 || self["job"] >= tr.spans[0].End.Sub(tr.spans[0].Start) {
		t.Errorf("self times %v", self)
	}
}

func TestLayerTimesTakeTokenizerOutOfCount(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "job", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "text.tokenize", Start: at(0), End: at(20)},
		{ID: 3, Parent: 1, Name: "tfidf.count", Start: at(20), End: at(70)},
		{ID: 4, Parent: 1, Name: "tfidf.merge", Start: at(70), End: at(90)},
	}
	got := layerTimes(spans)
	want := map[string]float64{"job": 0.010, "text.tokenize": 0.020, "tfidf.count": 0.030, "tfidf.merge": 0.020}
	for name, w := range want {
		if d := got[name] - w; d > 1e-12 || d < -1e-12 {
			t.Errorf("layerTimes[%s] = %v, want %v", name, got[name], w)
		}
	}
}
