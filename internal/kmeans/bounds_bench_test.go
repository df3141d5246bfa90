package kmeans

import (
	"fmt"
	"testing"

	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
)

// BenchmarkAssignPruned measures what triangle-inequality pruning buys on
// the assignment kernel: a full clustering loop through the deterministic
// sharded path (the workflow engine's execution shape) with bounds off,
// with Hamerly's single bound (PruneOn) and with Elkan's per-centroid
// bounds (PruneElkan), over separated blobs (the favorable case — most
// documents skip after the first iterations) and overlapping sparse
// vectors (the adversarial case — bound gaps are narrow, skips rarer).
// The bounded runs report their skip rate as a metric — at k=16 the Elkan
// rate should exceed Hamerly's, repaying the k× bound memory. Results are
// bit-identical in every mode (the TestPruneBitIdentical /
// TestElkanBitIdentical contracts), so any ns/op gap is pure kernel
// savings minus bounds upkeep. Run with
//
//	go test ./internal/kmeans -run '^$' -bench AssignPruned -benchtime 5x
//
// and record the output as BENCH_pruned.json.
func BenchmarkAssignPruned(b *testing.B) {
	blobDocs, _ := blobs(2000, 8, 32, 7)
	datasets := []struct {
		name string
		docs []sparse.Vector
		dim  int
		opts Options
	}{
		{"blobs-k8", blobDocs, 32, Options{K: 8, Seed: 3, MaxIter: 30}},
		{"sparse-k16", sparseMix(1500, 64, 11), 64, Options{K: 16, Seed: 1, MaxIter: 30}},
	}
	const shards = 4
	for _, ds := range datasets {
		for _, mode := range []PruneMode{PruneOff, PruneOn, PruneElkan} {
			b.Run(ds.name+"/prune="+mode.String(), func(b *testing.B) {
				pool := par.NewPool(1)
				defer pool.Close()
				opts := ds.opts
				opts.Prune = mode
				var stats PruneStats
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c, err := New(ds.docs, ds.dim, pool, opts)
					if err != nil {
						b.Fatal(err)
					}
					accs := make([]*Accum, shards)
					for q := range accs {
						accs[q] = c.NewAccum()
					}
					for !c.Done() {
						for q := range accs {
							accs[q].Reset()
							lo, hi := pario.PartitionRange(len(ds.docs), shards, q)
							c.AssignShard(lo, hi, accs[q])
						}
						c.EndIteration(accs)
					}
					stats = c.Finalize().Prune
				}
				b.StopTimer()
				if mode != PruneOff {
					b.ReportMetric(100*stats.SkipRate(), "skip%")
				}
			})
		}
	}
}

// BenchmarkAssignBlocked measures what the blocked distance kernel buys on
// the unpruned full scan: the same sharded clustering loop as
// BenchmarkAssignPruned with bounds off, once on the scalar kernel (a nil
// layout) and once on the blocked kernel at the width BlockSize derives
// from k, over the adversarial overlapping sparse corpus at k=16 (every
// document pays the full k-way scan every iteration, so the comparison
// isolates the kernel) and the blob corpus at k=8. Results are
// bit-identical either way (the TestBlockedAssignBitIdentical contract),
// so any ns/op gap is pure memory-traffic savings: one sweep of a
// document's nonzeros feeds B register accumulators instead of B sweeps
// feeding one. Recorded alongside BenchmarkAssignPruned in
// BENCH_pruned.json.
func BenchmarkAssignBlocked(b *testing.B) {
	blobDocs, _ := blobs(2000, 8, 32, 7)
	datasets := []struct {
		name string
		docs []sparse.Vector
		dim  int
		opts Options
	}{
		{"blobs-k8", blobDocs, 32, Options{K: 8, Seed: 3, MaxIter: 30, Prune: PruneOff}},
		{"sparse-k16", sparseMix(1500, 64, 11), 64, Options{K: 16, Seed: 1, MaxIter: 30, Prune: PruneOff}},
	}
	const shards = 4
	for _, ds := range datasets {
		for _, scalar := range []bool{true, false} {
			name := fmt.Sprintf("b%d", BlockSize(ds.opts.K))
			if scalar {
				name = "scalar"
			}
			b.Run(ds.name+"/block="+name, func(b *testing.B) {
				pool := par.NewPool(1)
				defer pool.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c, err := New(ds.docs, ds.dim, pool, ds.opts)
					if err != nil {
						b.Fatal(err)
					}
					iterateSharded(c, shards, scalar)
				}
			})
		}
	}
}

// BenchmarkSeeding measures K-Means++ seeding, serial versus decomposed
// into the executor's shape (per-shard ScanRange waves with a serial
// EndRound draw between them) — the prepare-protocol path the workflow
// engine dispatches, minus scheduling. Seeds are bit-identical in both
// shapes (the decomposition is an exact refactoring of the serial loop),
// so the gap is pure parallelizable-scan exposure. Recorded alongside
// BenchmarkAssignPruned in BENCH_pruned.json.
func BenchmarkSeeding(b *testing.B) {
	blobDocs, _ := blobs(2000, 8, 32, 7)
	const k, shards = 16, 4
	pool := par.NewPool(1)
	defer pool.Close()
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New(blobDocs, 32, pool, Options{K: k, Seed: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sharded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, s, err := NewDeferredSeed(blobDocs, 32, pool, Options{K: k, Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			for r := 0; r < s.Rounds(); r++ {
				for q := 0; q < shards; q++ {
					lo, hi := pario.PartitionRange(len(blobDocs), shards, q)
					s.ScanRange(lo, hi)
				}
				s.EndRound()
			}
			s.Finish()
		}
	})
}
