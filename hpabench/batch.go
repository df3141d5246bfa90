package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hpa/internal/corpus"
	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/par"
	"hpa/internal/tfidf"
	"hpa/internal/workflow"
)

// batchSpec is one batch workload: the corpus it generates and the pinned
// plan it runs. Nothing is left to the optimizer.
type batchSpec struct {
	corpus  corpus.Spec
	k       int
	shards  int // TFKMConfig.Shards: -1 auto, >0 pinned
	workers int // RPC workers served in-process; 0 runs on LocalBackend
}

// batchIterations pins every batch job to two K-Means iterations. Run to
// convergence, the generated corpora take from 2 to 23 iterations
// depending on the seed (Mix@0.1, K=8, seeds 1-12: 3 to 23; the RPC corpus
// at K=64: 2 to 16), which would make job time a property of the seed
// rather than of the code.
const batchIterations = 2

// config is the job's workflow configuration on backend b.
func (s batchSpec) config(b workflow.Backend) workflow.TFKMConfig {
	return workflow.TFKMConfig{
		Mode:    workflow.Merged,
		Shards:  s.shards,
		TFIDF:   tfidf.Options{DictKind: dict.Tree, Normalize: true},
		KMeans:  kmeans.Options{K: s.k, Seed: 1, MaxIter: batchIterations},
		Backend: b,
	}
}

// seeded returns the corpus spec with the workload seed folded into the
// generator's own seed, so every --seed gives a different corpus of the
// same shape.
func seeded(spec corpus.Spec, seed uint64) corpus.Spec {
	spec.Seed ^= seed * 0x9e3779b97f4a7c15
	return spec
}

// clusteringDigest is what must be bit-identical between a job and the
// reference: the clusters file as written, the TF/IDF scores, and the
// K-Means trajectory (iterations, convergence, cluster sizes, seeds).
// Centroid floats are left out on purpose: the per-iteration reduce sums
// shard partials, so their last bits depend on the shard count.
type clusteringDigest struct {
	Clusters   [32]byte
	TFIDF      [32]byte
	Iterations int
	Converged  bool
	Counts     []int64
	Seeds      []int
}

// digestOf digests a clustering whose clusters file was written under
// scratch.
func digestOf(cl *workflow.Clustering, scratch string) (clusteringDigest, error) {
	var d clusteringDigest
	f, err := os.Open(clustersPath(scratch))
	if err != nil {
		return d, fmt.Errorf("digest: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return d, fmt.Errorf("digest: %w", err)
	}
	copy(d.Clusters[:], h.Sum(nil))
	if cl.TFIDF == nil {
		return d, errors.New("digest: the job dropped its TF/IDF result")
	}
	d.TFIDF = digestTFIDF(cl.TFIDF)
	r := cl.Result
	d.Iterations, d.Converged = r.Iterations, r.Converged
	d.Counts = append([]int64(nil), r.Counts...)
	d.Seeds = append([]int(nil), r.Seeds...)
	return d, nil
}

// digestTFIDF hashes the term table and every score's bits.
func digestTFIDF(r *tfidf.Result) [32]byte {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	for i, t := range r.Terms {
		buf = append(buf, t...)
		buf = binary.LittleEndian.AppendUint32(append(buf, 0), r.DF[i])
		if len(buf) > 60000 {
			flush()
		}
	}
	for i := range r.Vectors {
		v := &r.Vectors[i]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Idx)))
		for j, idx := range v.Idx {
			buf = binary.LittleEndian.AppendUint32(buf, idx)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Val[j]))
			if len(buf) > 60000 {
				flush()
			}
		}
	}
	flush()
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// batchEnv is one set-up batch workload: the corpus on disk, the
// reference clustering, and (for RPC) the in-process workers.
type batchEnv struct {
	spec    batchSpec
	pool    *par.Pool
	dir     string // corpus directory
	scratch string // per-job scratch (clusters file)
	ref     clusteringDigest
	backend workflow.Backend
	rpc     *workflow.RPCBackend
	wire    wireCounter
	lns     []net.Listener
	served  sync.WaitGroup
}

// writeCorpus generates the corpus spec describes and writes it to dir,
// one file per document. It is the run's input, made once per run before
// the timed set-ups: how long the file system takes to create a few
// thousand files drifts far more between runs than anything the program
// does (on a 2-vCPU VM, from 0.04 s to 1.4 s over four consecutive runs),
// so it stays out of setup_s.
func writeCorpus(dir string, spec corpus.Spec, pool *par.Pool) (*corpus.Corpus, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	c := corpus.Generate(spec, pool)
	return c, c.WriteDir(dir, 256)
}

// setupBatch computes the reference clustering of the corpus in dir
// (LocalBackend, bulk plan) and, for RPC workloads, starts the workers and
// runs the warm-up job that fills their caches.
func setupBatch(dir, work string, spec batchSpec, pool *par.Pool) (*batchEnv, error) {
	e := &batchEnv{spec: spec, pool: pool, dir: dir, scratch: filepath.Join(work, "job")}
	refSpec := spec
	refSpec.shards = 0
	ref, _, err := runJob(e.dir, e.scratch, pool, refSpec.config(workflow.LocalBackend{}))
	if err != nil {
		return nil, fmt.Errorf("reference job: %w", err)
	}
	e.ref = ref.digest
	e.backend = workflow.LocalBackend{}
	if spec.workers == 0 {
		return e, nil
	}
	var addrs []string
	for i := 0; i < spec.workers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		e.lns = append(e.lns, ln)
		addrs = append(addrs, ln.Addr().String())
		e.served.Add(1)
		go func() {
			defer e.served.Done()
			_ = workflow.ServeWorker(countingListener{Listener: ln, c: &e.wire}) // returns when the listener closes
		}()
	}
	if e.rpc, err = workflow.NewRPCBackend(addrs); err != nil {
		e.close()
		return nil, err
	}
	e.backend = e.rpc
	warm, _, err := runJob(e.dir, e.scratch, pool, spec.config(e.rpc))
	if err == nil && !reflect.DeepEqual(warm.digest, e.ref) {
		err = errors.New("warm-up job differs from the reference clustering")
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return e, nil
}

// close stops the workers and waits until their accept loops returned.
func (e *batchEnv) close() {
	if e.rpc != nil {
		e.rpc.Close()
	}
	for _, ln := range e.lns {
		ln.Close()
	}
	e.served.Wait()
}

// jobStats is one job as measured from outside.
type jobStats struct {
	wall     time.Duration
	alloc    uint64 // heap bytes allocated, process-wide
	gcCycles uint32
	gcPause  time.Duration
	wireIn   int64
	wireOut  int64
	digest   clusteringDigest
}

// runJob runs one job from opening the corpus to writing the clusters,
// after a full GC so every job starts from the same heap.
func runJob(dir, scratch string, pool *par.Pool, cfg workflow.TFKMConfig) (jobStats, *workflow.TFKMReport, error) {
	var js jobStats
	if err := cleanScratch(scratch); err != nil {
		return js, nil, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	src, err := corpus.OpenDir(dir, nil)
	if err != nil {
		return js, nil, err
	}
	ctx := workflow.NewContext(pool)
	ctx.ScratchDir = scratch
	rep, err := workflow.RunTFKM(src, ctx, cfg)
	js.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return js, nil, err
	}
	js.alloc = m1.TotalAlloc - m0.TotalAlloc
	js.gcCycles = m1.NumGC - m0.NumGC
	js.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	js.digest, err = digestOf(rep.Clustering, scratch)
	return js, rep, err
}

// job runs one measured job on the workload's backend and checks it
// against the reference. A wrong clustering is reported as errWrong.
func (e *batchEnv) job(b workflow.Backend) (jobStats, error) {
	in0, out0 := e.wire.In.Load(), e.wire.Out.Load()
	js, _, err := runJob(e.dir, e.scratch, e.pool, e.spec.config(b))
	js.wireIn, js.wireOut = e.wire.In.Load()-in0, e.wire.Out.Load()-out0
	if err == nil && !reflect.DeepEqual(js.digest, e.ref) {
		err = errWrong
	}
	return js, err
}

// errWrong marks an operation that completed with a wrong result.
var errWrong = errors.New("result differs from the reference")

// taskProbe counts and times every task the executor hands a backend.
type taskProbe struct {
	tasks, taskNS atomic.Int64
	calls, callNS atomic.Int64
}

func (p *taskProbe) observe(t *workflow.Task, remote bool, d time.Duration) {
	p.tasks.Add(1)
	p.taskNS.Add(int64(d))
	if remote && t.Remote != nil {
		p.calls.Add(1)
		p.callNS.Add(int64(d))
	}
}

// localProbe is LocalBackend with a task probe around it.
type localProbe struct {
	workflow.LocalBackend
	p *taskProbe
}

// RunTask implements workflow.Backend.
func (b localProbe) RunTask(ctx *workflow.Context, t *workflow.Task) (workflow.Value, error) {
	start := time.Now()
	v, err := b.LocalBackend.RunTask(ctx, t)
	b.p.observe(t, false, time.Since(start))
	return v, err
}

// rpcProbe embeds the RPC backend, so its affinity and scope release
// still reach the executor, and times every task; a task with a remote
// descriptor is one worker round trip (plus any cache-miss resend).
type rpcProbe struct {
	*workflow.RPCBackend
	p *taskProbe
}

// RunTask implements workflow.Backend.
func (b rpcProbe) RunTask(ctx *workflow.Context, t *workflow.Task) (workflow.Value, error) {
	start := time.Now()
	v, err := b.RPCBackend.RunTask(ctx, t)
	b.p.observe(t, true, time.Since(start))
	return v, err
}

// probed returns the workload's backend wrapped in a task probe.
func (e *batchEnv) probed(p *taskProbe) workflow.Backend {
	if e.rpc != nil {
		return rpcProbe{RPCBackend: e.rpc, p: p}
	}
	return localProbe{p: p}
}

// runBatch measures a batch workload: write the corpus, set up `setups`
// times (keeping the last), then run jobs in a closed loop until the
// window ends.
func runBatch(r *run, spec batchSpec) error {
	dir := filepath.Join(r.work, "corpus")
	start := time.Now()
	if _, err := writeCorpus(dir, seeded(spec.corpus, r.seed), r.pool); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	r.notef("corpus generated and written in %.3f s (not part of setup_s)", time.Since(start).Seconds())
	var env *batchEnv
	var setupTimes []float64
	for i := 0; i < r.setups; i++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		var err error
		if env, err = setupBatch(dir, r.work, spec, r.pool); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer env.close()
	r.set("setup_s", median(setupTimes))

	if r.trace {
		return traceBatch(r, env)
	}
	// From here on the peak covers the measured jobs only. What set-up
	// left resident (on batch-rpc, the workers' sessions from the warm-up
	// jobs) still counts, as the high-water mark starts at today's RSS.
	r.resetPeakRSS()
	var walls, allocs, wires, ins, outs []float64
	deadline := time.Now().Add(r.window)
	for r.more(deadline, len(walls)) {
		js, err := env.job(env.backend)
		if !r.count(err) {
			continue
		}
		walls = append(walls, js.wall.Seconds())
		allocs = append(allocs, float64(js.alloc)/1e6)
		ins = append(ins, float64(js.wireIn)/1e6)
		outs = append(outs, float64(js.wireOut)/1e6)
		wires = append(wires, float64(js.wireIn+js.wireOut)/1e6)
	}
	r.set("peak_rss_mb", peakRSSMB())
	r.set("job_s", median(walls))
	r.set("alloc_mb", median(allocs))
	r.notef("jobs: %d, job_s p90 %.4f s", len(walls), quantile(walls, 0.9))
	if spec.workers > 0 {
		r.set("wire_mb", median(wires))
		r.notef("wire per job: args %.3f MB, replies %.3f MB", median(ins), median(outs))
	}
	return nil
}

// traceBatch is the traced run of a batch workload. Each round runs an
// untraced job, a job through the task probe and the layer-by-layer
// replay; per-layer metrics are medians over rounds.
func traceBatch(r *run, env *batchEnv) error {
	var (
		untraced, probed, replayWall []float64
		tasks, taskS, calls, callS   []float64
		gcCycles, gcPause            []float64
		argsMB, replyMB              []float64
		self                         = make(map[string][]float64)
		last                         *replayResult
	)
	deadline := time.Now().Add(r.window)
	for r.more(deadline, len(untraced)) {
		js, err := env.job(env.backend)
		if !r.count(err) {
			continue
		}
		p := &taskProbe{}
		pj, err := env.job(env.probed(p))
		if !r.count(err) {
			continue
		}
		rr, err := replayJob(env.dir, env.scratch, env.pool, env.spec.config(nil))
		if err == nil && !reflect.DeepEqual(rr.digest, env.ref) {
			err = fmt.Errorf("replay: %w", errWrong)
		}
		if !r.count(err) {
			continue
		}
		untraced = append(untraced, js.wall.Seconds())
		probed = append(probed, pj.wall.Seconds())
		tasks = append(tasks, float64(p.tasks.Load()))
		taskS = append(taskS, time.Duration(p.taskNS.Load()).Seconds())
		calls = append(calls, float64(p.calls.Load()))
		callS = append(callS, time.Duration(p.callNS.Load()).Seconds())
		gcCycles = append(gcCycles, float64(js.gcCycles))
		gcPause = append(gcPause, float64(js.gcPause)/1e6)
		argsMB = append(argsMB, float64(js.wireIn)/1e6)
		replyMB = append(replyMB, float64(js.wireOut)/1e6)
		replayWall = append(replayWall, rr.wall())
		for name, v := range layerTimes(rr.spans) {
			self[name] = append(self[name], v)
		}
		last = rr
	}
	r.setReplayLayers(self, last)
	r.set("workflow.tasks", median(tasks))
	r.set("workflow.task_s", median(taskS))
	if env.rpc != nil {
		r.set("rpc.calls", median(calls))
		r.set("rpc.roundtrip_s", median(callS))
		r.set("wire.args_mb", median(argsMB))
		r.set("wire.reply_mb", median(replyMB))
	}
	r.set("runtime.gc_cycles", median(gcCycles))
	r.set("runtime.gc_pause_ms", median(gcPause))
	r.reconcile(self, median(untraced), median(replayWall), median(probed))
	return nil
}
