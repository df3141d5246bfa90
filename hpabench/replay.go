package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"hpa/internal/corpus"
	"hpa/internal/kmeans"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/text"
	"hpa/internal/tfidf"
	"hpa/internal/workflow"
)

// This file is the traced run's layer-by-layer replay of one job. The
// workflow executor calls the layers from inside a plan, where the
// benchmark cannot time them; the replay makes the same calls itself, one
// layer at a time, with a span around each:
//
//	job
//	├── pario.read       open the corpus directory, read every document
//	├── text.tokenize    a text.Tokenizer pass over every document
//	├── tfidf.count      tfidf.CountShard per shard, over the read documents
//	├── tfidf.merge      tfidf.MergeShards: the global term table
//	├── tfidf.transform  tfidf.TransformShard per shard, assembled
//	├── kmeans.seed      K-Means++: NewDeferredSeed, every round, Finish
//	├── kmeans.assign    per iteration: AssignShard over fixed chunks
//	├── kmeans.update    per iteration: EndIteration (reduce + centroids)
//	└── workflow.output  the workflow's own WriteAssignments operator
//
// Every span times the program's own functions. tfidf.CountShard
// tokenizes as it counts, so the tokenizer pass runs first on its own and
// tfidf.count_s is the CountShard span minus that pass (layerTimes); the
// pass's output is dropped, and it is tracing overhead. The replay's
// clustering must equal the reference, which proves the replay computes
// what the job computes.

// replayGrain is the fixed document chunk of the replay's parallel loops:
// chunk boundaries, and so every reduction order, do not depend on the
// worker count.
const replayGrain = 256

// replayResult is what one traced replay measured.
type replayResult struct {
	spans      []span
	readBytes  int64
	tokens     int64
	terms      int
	footprint  int64 // dictionary bytes, as the job reports them
	nnz        int64
	seedRounds int
	iterations int
	skipRatio  float64
	digest     clusteringDigest
}

// wall returns the replay's wall time in seconds: its root span.
func (rr *replayResult) wall() float64 {
	root := rr.spans[0]
	return root.End.Sub(root.Start).Seconds()
}

// replayJob runs the job on the corpus in dir layer by layer, writing its
// clusters under scratch.
func replayJob(dir, scratch string, pool *par.Pool, cfg workflow.TFKMConfig) (*replayResult, error) {
	tr := &tracer{}
	out := &replayResult{}
	root := tr.begin("job", 0)
	topts := cfg.TFIDF

	var (
		src  *pario.FileSource
		docs [][]byte
		err  error
	)
	tr.do("pario.read", root, func() {
		if src, err = corpus.OpenDir(dir, nil); err != nil {
			return
		}
		docs = make([][]byte, src.Len())
		err = pario.ReadAll(src, pool.Workers(), func(i int, b []byte) error {
			docs[i] = b
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	n := len(docs)
	for _, d := range docs {
		out.readBytes += int64(len(d))
	}

	tr.do("text.tokenize", root, func() {
		counts := make([]int64, par.Chunks(n, replayGrain))
		pool.ForChunks(n, replayGrain, func(ch, lo, hi int) {
			tk := &text.Tokenizer{MinLen: topts.MinWordLen, Stopwords: topts.Stopwords, Stem: topts.Stem}
			for i := lo; i < hi; i++ {
				tk.Tokens(docs[i], func([]byte) { counts[ch]++ })
			}
		})
		for _, c := range counts {
			out.tokens += c
		}
	})

	// The documents as read, served from memory, so CountShard's own
	// reads cost no file I/O a second time; names are the files' paths,
	// as the job's.
	mem := &pario.MemSource{Names: make([]string, n), Docs: docs}
	for i := range mem.Names {
		mem.Names[i] = src.Name(i)
	}
	// One count shard per pool worker, as the executor's auto sharding
	// gives each worker its own DF table, with the workers divided among
	// the shards as readers.
	nshards := pool.Workers()
	shards := make([]*tfidf.ShardCounts, nshards)
	errs := make([]error, nshards)
	tr.do("tfidf.count", root, func() {
		pool.For(0, nshards, 1, func(s int) {
			shards[s], errs[s] = tfidf.CountShard(pario.Partition(mem, nshards, s), max(1, pool.Workers()/nshards), topts)
		})
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	docs, mem = nil, nil

	var g *tfidf.Global
	tr.do("tfidf.merge", root, func() { g = tfidf.MergeShards(shards, pool, topts) })
	out.terms = len(g.Terms)

	var res *tfidf.Result
	norms := make([]float64, n)
	tr.do("tfidf.transform", root, func() {
		res = tfidf.NewResultShell(g)
		for _, sc := range shards {
			vs := tfidf.TransformShard(g, sc, pool, topts)
			res.AbsorbShard(vs)
			copy(norms[vs.Lo:vs.Hi], vs.Norms)
		}
		res.Norms = norms
	})
	out.footprint = res.DictFootprint
	for i := range res.Vectors {
		out.nnz += int64(len(res.Vectors[i].Idx))
	}

	kopts := cfg.KMeans
	kopts.DocNorms = norms
	var c *kmeans.Clusterer
	tr.do("kmeans.seed", root, func() {
		var s *kmeans.Seeding
		if c, s, err = kmeans.NewDeferredSeed(res.Vectors, res.Dim(), pool, kopts); err != nil {
			return
		}
		out.seedRounds = s.Rounds()
		for r := s.Rounds(); r > 0; r-- {
			pool.ForChunks(n, replayGrain, func(_, lo, hi int) { s.ScanRange(lo, hi) })
			s.EndRound()
		}
		s.Finish()
	})
	if err != nil {
		return nil, err
	}
	accs := make([]*kmeans.Accum, par.Chunks(n, replayGrain))
	for i := range accs {
		accs[i] = c.NewAccum()
	}
	for !c.Done() {
		tr.do("kmeans.assign", root, func() {
			for _, a := range accs {
				a.Reset()
			}
			pool.ForChunks(n, replayGrain, func(ch, lo, hi int) { c.AssignShard(lo, hi, accs[ch]) })
		})
		tr.do("kmeans.update", root, func() { c.EndIteration(accs) })
	}
	km := c.Finalize()
	out.iterations = km.Iterations
	if ps := km.Prune; ps.DocIterations > 0 {
		out.skipRatio = float64(ps.Skipped) / float64(ps.DocIterations)
	}

	cl := &workflow.Clustering{Result: km, DocNames: res.DocNames, TFIDF: res}
	tr.do("workflow.output", root, func() {
		ctx := workflow.NewContext(pool)
		ctx.ScratchDir = scratch
		_, err = (&workflow.WriteAssignments{}).Run(ctx, cl)
	})
	tr.end(root)
	if err != nil {
		return nil, err
	}
	out.spans = tr.spans
	out.digest, err = digestOf(cl, scratch)
	return out, err
}

// cleanScratch empties a job's scratch directory.
func cleanScratch(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("clean scratch: %w", err)
	}
	return os.MkdirAll(dir, 0o755)
}

// clustersPath is where WriteAssignments puts a job's output.
func clustersPath(scratch string) string { return filepath.Join(scratch, "clusters.tsv") }
