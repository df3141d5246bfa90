package par

import "sync"

// Reducer is the analogue of a Cilk reducer hyperobject: a set of private
// views of an accumulator, each used by at most one strand at a time, merged
// into a single result after the parallel region.
//
// Unlike Cilk, views are not keyed by worker identity (which Go does not
// expose) but claimed and released per loop chunk. Claim pops a free view
// (creating one when none is free); Release returns it. Because a view is held exclusively between Claim and
// Release, bodies may mutate it without synchronization.
//
// ForReduce creates the pool's Workers()+1 views up front — the most
// strands that can run a region's chunks at once: every worker plus the
// goroutine joining the region — so its chunks never allocate a view, and
// a reset reducer reuses exactly the same views in the next region at any
// GOMAXPROCS. The view count is bounded by that, not by the iteration
// count, so per-view state may be large (e.g. a full set of centroid
// accumulators). Claim still creates a view when every existing one is
// claimed, which happens only when it is used outside ForReduce, or when
// goroutines beyond the pool's workers help run a region.
type Reducer[T any] struct {
	mu      sync.Mutex
	free    []T
	all     []T
	newView func() T
	resetFn func(T)
}

// NewReducer creates a reducer whose views are produced by newView. If
// reset is non-nil it is applied to recycled views by ResetAll, allowing the
// same reducer (and its allocated views) to be reused across K-Means
// iterations — the paper's "recycling data structures throughout the
// K-means iterations" optimization.
func NewReducer[T any](newView func() T, reset func(T)) *Reducer[T] {
	return &Reducer[T]{newView: newView, resetFn: reset}
}

// reserve creates views until the reducer holds at least n. It must only
// be called outside parallel regions.
func (r *Reducer[T]) reserve(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.all) < n {
		v := r.newView()
		r.all = append(r.all, v)
		r.free = append(r.free, v)
	}
}

// Claim returns a view for exclusive use by the calling strand.
func (r *Reducer[T]) Claim() T {
	r.mu.Lock()
	if n := len(r.free); n > 0 {
		v := r.free[n-1]
		r.free = r.free[:n-1]
		r.mu.Unlock()
		return v
	}
	r.mu.Unlock()
	v := r.newView()
	r.mu.Lock()
	r.all = append(r.all, v)
	r.mu.Unlock()
	return v
}

// Release returns a view claimed by Claim.
func (r *Reducer[T]) Release(v T) {
	r.mu.Lock()
	r.free = append(r.free, v)
	r.mu.Unlock()
}

// Views returns every view ever created. It must only be called outside
// parallel regions (all views released).
func (r *Reducer[T]) Views() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.free) != len(r.all) {
		panic("par: Reducer.Views called with views still claimed")
	}
	return r.all
}

// ResetAll applies the reset function to every view, recycling them for the
// next parallel region without reallocation.
func (r *Reducer[T]) ResetAll() {
	if r.resetFn == nil {
		return
	}
	for _, v := range r.Views() {
		r.resetFn(v)
	}
}

// Len reports how many views have been created so far.
func (r *Reducer[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.all)
}

// ForReduce runs body over subranges of [lo, hi) in parallel, handing each
// invocation an exclusively-claimed reducer view out of the Workers()+1
// views it creates up front (see Reducer). After it returns, the partial
// results are available via r.Views for merging.
func ForReduce[T any](p *Pool, r *Reducer[T], lo, hi, grain int, body func(v T, lo, hi int)) {
	r.reserve(p.Workers() + 1)
	p.ForRange(lo, hi, grain, func(lo, hi int) {
		v := r.Claim()
		body(v, lo, hi)
		r.Release(v)
	})
}
