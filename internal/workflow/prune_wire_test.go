package workflow

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"hpa/internal/flatwire"
	"hpa/internal/kmeans"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
)

// runTFKMPruneOn runs the full plan with an explicit K-Means option set —
// the prune matrix needs to flip Prune and Empty per run.
func runTFKMPruneOn(t *testing.T, src pario.Source, shards int, backend Backend, scratch string, km kmeans.Options) *TFKMReport {
	t.Helper()
	pool := par.NewPool(4)
	defer pool.Close()
	ctx := NewContext(pool)
	ctx.ScratchDir = scratch
	ctx.Backend = backend
	rep, err := RunTFKM(src, ctx, TFKMConfig{
		Mode:   Merged,
		Shards: shards,
		TFIDF:  tfidf.Options{Normalize: true},
		KMeans: km,
	})
	if err != nil {
		t.Fatalf("RunTFKM(shards=%d, backend=%s, prune=%s): %v", shards, backend.Name(), km.Prune, err)
	}
	return rep
}

// TestPrunedAssignMatchesBulk is the pruning and sharded-seeding
// acceptance suite. Two baselines anchor the matrix:
//
//   - the bulk-synchronous plan (Shards: 0) — serial K-Means++ seeding,
//     full-scan assignment. Every sharded cell must reproduce its seed
//     picks, assignments, cluster counts and iteration count exactly
//     (seed picks are the tentpole's bit-identity claim: the decomposed
//     scan rounds replay the serial RNG draw-for-draw), and its centroids
//     up to reduction-order rounding — the same contract sameClustering
//     asserts for the unpruned loop;
//   - the sharded PruneOff run at the same shard count. Within one shard
//     count, {off, hamerly, elkan} × {local, rpc} must agree
//     bit-for-bit: inertia, full inertia history, centroids, everything
//     — pruning and backend choice never touch a float.
//
// The bounded cells must also actually skip work, and the per-centroid
// Elkan bounds must never skip less than Hamerly's single bound over the
// matrix (strict dominance on a k>=16 case is asserted at the kmeans
// level, where synthetic data iterates long enough to open a gap — this
// corpus converges in a couple of iterations).
//
// Every run uses the blocked distance kernel at the width k=13 derives
// (8 lanes, ragged tail) — on the coordinator and in the worker sessions
// alike, since both call kmeans.BlockSize. Its equality with the scalar
// kernel is asserted at the kmeans level (TestBlockedAssignBitIdentical).
// Under -short (the CI race run) the matrix shrinks to one shard count
// and one empty policy — still covering sharded seeding on both backends
// under the race detector.
func TestPrunedAssignMatchesBulk(t *testing.T) {
	src := diskCorpus(t)
	scratch := t.TempDir()
	// K well above the corpus's natural topic count: the run still converges
	// fast, but enough centroids sit close together that bound gaps open and
	// some documents provably skip already in iteration 2 — on this tiny
	// deterministic corpus that is the window pruning gets. (Long-running
	// skip-rate behavior is covered at the kmeans level, where synthetic
	// data iterates longer.)
	empties := []kmeans.EmptyPolicy{kmeans.KeepCentroid, kmeans.ReseedFarthest}
	shardCounts := []int{1, 4, 7}
	if testing.Short() {
		empties = empties[:1]
		shardCounts = []int{4}
	}
	modes := []struct {
		mode    kmeans.PruneMode
		variant string
	}{
		{kmeans.PruneOff, "off"},
		{kmeans.PruneOn, "hamerly"},
		{kmeans.PruneElkan, "elkan"},
	}
	for _, empty := range empties {
		// Shards: 0 keeps the single-operator bulk path: seeding scans run
		// serially inside the clusterer, not as executor prepare tasks.
		bulk := runTFKMPruneOn(t, src, 0, LocalBackend{}, scratch,
			kmeans.Options{K: 13, Seed: 3, Empty: empty, Prune: kmeans.PruneOff})
		br := bulk.Clustering.Result
		if br.Prune.Enabled {
			t.Fatalf("empty=%v: bulk PruneOff run reports bounds enabled", empty)
		}
		var hamSkipped, elkSkipped int64
		for _, shards := range shardCounts {
			// Per-shard-count bit-exact reference: the unpruned local run.
			ref := runTFKMPruneOn(t, src, shards, LocalBackend{}, scratch,
				kmeans.Options{K: 13, Seed: 3, Empty: empty, Prune: kmeans.PruneOff}).Clustering.Result
			backends := []struct {
				name string
				b    Backend
			}{{"local", LocalBackend{}}, {"rpc", pipeBackend(t, 2)}}
			for _, bk := range backends {
				for _, m := range modes {
					rep := runTFKMPruneOn(t, src, shards, bk.b, scratch,
						kmeans.Options{K: 13, Seed: 3, Empty: empty, Prune: m.mode})
					pr := rep.Clustering.Result
					tag := fmt.Sprintf("empty=%v shards=%d backend=%s prune=%s", empty, shards, bk.name, m.variant)

					// Against the serial-seeded bulk baseline: discrete
					// outcomes exact, centroids up to reduction order.
					if !reflect.DeepEqual(pr.Seeds, br.Seeds) {
						t.Errorf("%s: seed picks: got %v, bulk serial %v", tag, pr.Seeds, br.Seeds)
					}
					if pr.Iterations != br.Iterations {
						t.Errorf("%s: iterations: got %d, bulk %d", tag, pr.Iterations, br.Iterations)
					}
					if !reflect.DeepEqual(pr.Assign, br.Assign) {
						t.Errorf("%s: assignments differ from bulk", tag)
					}
					if !reflect.DeepEqual(pr.Counts, br.Counts) {
						t.Errorf("%s: cluster counts differ from bulk", tag)
					}
					for j := range br.Centroids {
						for d := range br.Centroids[j] {
							w, g := br.Centroids[j][d], pr.Centroids[j][d]
							if math.Abs(w-g) > 1e-12*(1+math.Abs(w)) {
								t.Fatalf("%s: centroid %d[%d] %v vs bulk %v", tag, j, d, g, w)
							}
						}
					}

					// Against the same-shard-count unpruned reference:
					// bit-for-bit, floats included.
					if math.Float64bits(pr.Inertia) != math.Float64bits(ref.Inertia) {
						t.Errorf("%s: inertia: got %v, unpruned ref %v", tag, pr.Inertia, ref.Inertia)
					}
					if !reflect.DeepEqual(pr.History, ref.History) {
						t.Errorf("%s: inertia history differs from unpruned ref", tag)
					}
					if !reflect.DeepEqual(pr.Centroids, ref.Centroids) {
						t.Errorf("%s: centroids differ bitwise from unpruned ref", tag)
					}

					if pr.Prune.Variant != m.variant {
						t.Errorf("%s: variant %q, want %q", tag, pr.Prune.Variant, m.variant)
					}
					switch m.mode {
					case kmeans.PruneOff:
						if pr.Prune.Enabled {
							t.Errorf("%s: PruneOff run reports bounds enabled", tag)
						}
					default:
						if !pr.Prune.Enabled {
							t.Errorf("%s: bounded run reports bounds disabled", tag)
						}
						if pr.Prune.Skipped == 0 {
							t.Errorf("%s: pruning skipped nothing over %d document-iterations", tag, pr.Prune.DocIterations)
						}
						if m.mode == kmeans.PruneOn {
							hamSkipped += pr.Prune.Skipped
						} else {
							elkSkipped += pr.Prune.Skipped
						}
					}
				}
			}
		}
		if elkSkipped < hamSkipped {
			t.Errorf("empty=%v: elkan skipped %d < hamerly %d at k=13; per-centroid bounds must dominate",
				empty, elkSkipped, hamSkipped)
		}
	}
}

// clearWorkerCaches resets the worker-side transform caches, so cache
// protocol tests start from a cold worker regardless of test order.
func clearWorkerCaches() {
	globalCache.Lock()
	globalCache.m = make(map[globalCacheKey]*globalCacheEntry)
	globalCache.Unlock()
	countCache.Lock()
	countCache.m = make(map[string]*countCacheEntry)
	countCache.Unlock()
}

// transformFlags runs the transform kernel and returns the reply's miss
// bitmask, plus the raw reply for payload decoding.
func transformFlags(t *testing.T, args TransformTaskArgs) (uint32, []byte) {
	t.Helper()
	reply, err := runTransformKernel(flatwire.NewReader(args.AppendFlat(nil)))
	if err != nil {
		t.Fatalf("transform kernel: %v", err)
	}
	r := flatwire.NewReader(reply)
	r.Magic(transformReplyMagic, "transform reply")
	flags := r.U32()
	if err := r.Err(); err != nil {
		t.Fatalf("transform reply header: %v", err)
	}
	return flags, reply
}

// TestTransformKernelCacheProtocol drives the worker-side cache protocol
// deterministically: a cold worker reports exactly the bodies it is
// missing, one inlined resend fills the global cache, and from then on the
// hash alone suffices — the table body ships at most once per worker.
func TestTransformKernelCacheProtocol(t *testing.T) {
	clearWorkerCaches()
	opts := tfidf.Options{Normalize: true}
	wopts, ok := opts.Wire()
	if !ok {
		t.Fatalf("options do not serialize")
	}
	docs := [][]byte{
		[]byte("alpha beta beta gamma"),
		[]byte("beta gamma gamma"),
		[]byte("alpha delta epsilon epsilon"),
	}
	pool := par.NewPool(2)
	defer pool.Close()
	count := func() *tfidf.ShardCounts {
		sc, err := tfidf.CountShard(&pario.MemSource{Docs: docs}, 1, opts)
		if err != nil {
			t.Fatalf("CountShard: %v", err)
		}
		return sc
	}
	g := tfidf.MergeShards([]*tfidf.ShardCounts{count()}, pool, opts)
	hash := g.ContentHash()
	expected := tfidf.TransformShard(g, count(), pool, opts)

	// 1. Cold worker, hash-only send, unknown session: both bodies missing.
	flags, _ := transformFlags(t, TransformTaskArgs{CountsSession: "sess-a", GlobalHash: hash, Opts: wopts})
	if flags != needGlobalFlag|needCountsFlag {
		t.Fatalf("cold worker flags = %#x, want %#x", flags, needGlobalFlag|needCountsFlag)
	}

	// 2. Counts cached (as the count kernel would): only the global missing —
	// and the miss must not consume the cached counts (the resend needs them).
	cacheCounts("sess-a", count())
	flags, _ = transformFlags(t, TransformTaskArgs{CountsSession: "sess-a", GlobalHash: hash, Opts: wopts})
	if flags != needGlobalFlag {
		t.Fatalf("counts-cached flags = %#x, want %#x", flags, needGlobalFlag)
	}
	if peekCounts("sess-a") == nil {
		t.Fatalf("global miss consumed the cached counts")
	}

	// 3. The resend inlines the global body: full reply, cached counts
	// consumed, table cached for every later shard.
	flags, reply := transformFlags(t, TransformTaskArgs{
		CountsSession: "sess-a", GlobalFlat: g.Wire().EncodeFlat(nil), GlobalHash: hash, Opts: wopts,
	})
	if flags != 0 {
		t.Fatalf("resend flags = %#x, want 0", flags)
	}
	vs, err := tfidf.DecodeFlatVectorShard(reply[8:])
	if err != nil {
		t.Fatalf("decode transform payload: %v", err)
	}
	assertShardEqual(t, "resend", vs, expected)
	if peekCounts("sess-a") != nil {
		t.Errorf("transform left the consumed counts cached")
	}

	// 4. A later shard on the same worker: the hash alone suffices — no
	// second body ship is ever requested (the ≤ once per worker bound).
	cacheCounts("sess-b", count())
	flags, reply = transformFlags(t, TransformTaskArgs{CountsSession: "sess-b", GlobalHash: hash, Opts: wopts})
	if flags != 0 {
		t.Fatalf("warm-cache flags = %#x: worker requested a second global ship", flags)
	}
	vs, err = tfidf.DecodeFlatVectorShard(reply[8:])
	if err != nil {
		t.Fatalf("decode warm-cache payload: %v", err)
	}
	assertShardEqual(t, "warm cache", vs, expected)

	// 5. Inlined counts (the no-affinity fallback) against the cached global.
	flags, reply = transformFlags(t, TransformTaskArgs{Counts: count().Wire(false), GlobalHash: hash, Opts: wopts})
	if flags != 0 {
		t.Fatalf("inlined-counts flags = %#x", flags)
	}
	vs, err = tfidf.DecodeFlatVectorShard(reply[8:])
	if err != nil {
		t.Fatalf("decode inlined-counts payload: %v", err)
	}
	assertShardEqual(t, "inlined counts", vs, expected)
}

// assertShardEqual compares two vector shards bit-exactly.
func assertShardEqual(t *testing.T, what string, got, want *tfidf.VectorShard) {
	t.Helper()
	if len(got.Vectors) != len(want.Vectors) {
		t.Fatalf("%s: %d vectors, want %d", what, len(got.Vectors), len(want.Vectors))
	}
	for i := range want.Vectors {
		if !sparse.Equal(&got.Vectors[i], &want.Vectors[i]) {
			t.Errorf("%s: vector %d differs", what, i)
		}
		if math.Float64bits(got.Norms[i]) != math.Float64bits(want.Norms[i]) {
			t.Errorf("%s: norm %d bits differ", what, i)
		}
	}
	if !reflect.DeepEqual(got.DocNames, want.DocNames) {
		t.Errorf("%s: names differ", what)
	}
}

// TestGlobalShipsBounded runs the full plan over RPC workers and asserts
// the wire bound end-to-end: the global term table's body crosses the wire
// at most once per worker process per content hash (the in-process pipe
// workers share one cache, so steady state is a single ship), and a
// repeat run over the same corpus ships no bodies at all.
func TestGlobalShipsBounded(t *testing.T) {
	clearWorkerCaches()
	globalInlineShips.Store(0)
	b := pipeBackend(t, 2)
	src := diskCorpus(t)
	scratch := t.TempDir()
	// One pool slot (plus the scheduler helping) keeps concurrent cold
	// misses — each of which legitimately triggers its own resend — rare,
	// so the ship count is the steady-state bound, not a race artifact.
	pool := par.NewPool(1)
	defer pool.Close()
	run := func() {
		ctx := NewContext(pool)
		ctx.ScratchDir = scratch
		ctx.Backend = b
		if _, err := RunTFKM(src, ctx, TFKMConfig{
			Mode:   Merged,
			Shards: 7,
			TFIDF:  tfidf.Options{Normalize: true},
			KMeans: kmeans.Options{K: 8, Seed: 1},
		}); err != nil {
			t.Fatalf("RunTFKM: %v", err)
		}
	}
	run()
	ships := globalInlineShips.Load()
	if ships < 1 || ships > 2 {
		t.Errorf("first run inlined the global %d times, want 1 (2 allowed for a concurrent cold miss)", ships)
	}
	run()
	if d := globalInlineShips.Load() - ships; d != 0 {
		t.Errorf("repeat run inlined the global %d more times, want 0 (hash cache should hit)", d)
	}
	if n := b.PinnedAffinities(); n != 0 {
		t.Errorf("%d affinity pins left after the runs (scope release failed)", n)
	}
	countCache.Lock()
	left := len(countCache.m)
	countCache.Unlock()
	if left != 0 {
		t.Errorf("%d count-cache sessions left on the worker after the runs", left)
	}
}

// TestKMAssignReplyFlat covers the flat kmeans.assign reply codec: exact
// round trips with and without distances, and structural rejection of
// malformed buffers.
func TestKMAssignReplyFlat(t *testing.T) {
	acc := &kmeans.AccumWire{
		Idx:     [][]uint32{{0, 2}, {}},
		Val:     [][]float64{{1.5, -2.25}, {}},
		Counts:  []int64{3, 0},
		Inertia: 7.5,
		Changed: 2,
		Skipped: 4,
	}
	for _, rep := range []*KMAssignReply{
		{Accum: acc, Assign: []int32{0, 1, 0}, Dists: []float64{0.5, 1.5, 2.5}},
		{Accum: acc, Assign: []int32{1, 1, 0}},
	} {
		got, err := DecodeFlatKMAssignReply(rep.EncodeFlat())
		if err != nil {
			t.Fatalf("DecodeFlatKMAssignReply: %v", err)
		}
		if !reflect.DeepEqual(got.Assign, rep.Assign) || !reflect.DeepEqual(got.Dists, rep.Dists) {
			t.Errorf("assign/dists round trip: got %v/%v", got.Assign, got.Dists)
		}
		if !reflect.DeepEqual(got.Accum.Counts, acc.Counts) ||
			math.Float64bits(got.Accum.Inertia) != math.Float64bits(acc.Inertia) ||
			got.Accum.Changed != acc.Changed || got.Accum.Skipped != acc.Skipped {
			t.Errorf("accum round trip: got %+v", got.Accum)
		}
	}

	good := (&KMAssignReply{Accum: acc, Assign: []int32{0, 1}}).EncodeFlat()
	badMarker := append([]byte{}, good...)
	badMarker[len(badMarker)-4] = 7 // distance marker is the trailing u32
	for name, b := range map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte{1, 1, 1, 1}, good[4:]...),
		"truncated":  good[:len(good)-3],
		"trailing":   append(append([]byte{}, good...), 0xff),
		"bad marker": badMarker,
	} {
		if rep, err := DecodeFlatKMAssignReply(b); err == nil {
			t.Errorf("%s: decoded without error: %+v", name, rep)
		}
	}
}
