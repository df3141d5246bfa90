package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is the ID of the span that made the call (0 for a
// root); spans of one job share the root.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Time
}

// tracer keeps a job's spans in memory. It is used from one goroutine: the
// benchmark times whole layer calls, and the layers parallelize inside.
type tracer struct {
	spans []span
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Now()})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) { t.spans[id-1].End = time.Now() }

// do runs fn inside a span named name under parent.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.End.Sub(s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(parent.End) {
			hi = parent.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.lo.After(cur.hi):
			if v.hi.After(cur.hi) {
				cur.hi = v.hi
			}
		default:
			total += cur.hi.Sub(cur.lo)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}
