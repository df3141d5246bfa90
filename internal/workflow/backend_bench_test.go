package workflow

import (
	"os"
	"runtime"
	"testing"

	"hpa/internal/corpus"
	"hpa/internal/kmeans"
	"hpa/internal/par"
	"hpa/internal/tfidf"
)

// BenchmarkPlanBackends runs the partitioned TF/IDF→K-Means plan on the
// local backend and on an RPC backend with two in-process pipe workers —
// the overhead bound of shipping every remotable shard task through gob
// and a worker loop without any network. On a single machine the RPC
// variant is strictly overhead (the documents round-trip as serialized
// dictionaries and vectors); the measurement bounds what distribution
// costs, which is what the optimizer's RPCShipNS prices per task. Run with
//
//	go test ./internal/workflow -run '^$' -bench PlanBackends -benchtime 5x
//
// and record the output as BENCH_distributed.json (re-record on a
// multicore box, where local shard overlap changes both sides).
func BenchmarkPlanBackends(b *testing.B) {
	c := corpus.Generate(corpus.Mix().Scaled(0.05), nil)
	dir := b.TempDir()
	if err := c.WriteDir(dir, 256); err != nil {
		b.Fatal(err)
	}

	pipes := func() *RPCBackend { return pipeWorkers(2) }

	cases := []struct {
		name    string
		backend func() Backend
	}{
		{"local", func() Backend { return LocalBackend{} }},
		{"rpc=2(pipe)", func() Backend { return pipes() }},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			pool := par.NewPool(runtime.GOMAXPROCS(0))
			defer pool.Close()
			backend := bc.backend()
			if rb, ok := backend.(*RPCBackend); ok {
				defer rb.Close()
			}
			scratch := b.TempDir()
			b.SetBytes(c.Bytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src, err := corpus.OpenDir(dir, nil)
				if err != nil {
					b.Fatal(err)
				}
				ctx := NewContext(pool)
				ctx.ScratchDir = scratch
				ctx.Backend = backend
				rep, err := RunTFKM(src, ctx, TFKMConfig{
					Mode:   Merged,
					Shards: 4,
					TFIDF:  tfidf.Options{Normalize: true},
					KMeans: kmeans.Options{K: 8, Seed: 42},
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Clustering == nil {
					b.Fatal("no clustering")
				}
			}
			if _, err := os.Stat(dir); err != nil {
				b.Fatal(err)
			}
		})
	}
}
