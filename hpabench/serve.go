package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"hpa/internal/corpus"
	"hpa/internal/par"
	"hpa/internal/serve"
	"hpa/internal/simsearch"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
	"hpa/internal/workflow"
)

// serveSpec is the serving workload: one corpus published as an index, a
// pool of query texts drawn from it, and the load shape.
type serveSpec struct {
	corpus      corpus.Spec
	k           int           // clusters of the published plan
	queries     int           // distinct query texts
	topK        int           // matches per query
	nominalQPS  float64       // the open-loop rate of the main window
	p99Limit    time.Duration // the latency objective of the rate ladder
	republishes int           // republishes during the main window
	ladderStep  time.Duration // length of one ladder rung
}

// serveSpecFor returns the serving workload at scale. The traffic is
// synthetic; README.md ("Where the serve numbers come from") gives each
// value's basis.
func serveSpecFor(scale float64) serveSpec {
	return serveSpec{
		corpus: corpus.Mix().Scaled(0.05 * scale),
		k:      8,
		// 512 texts, each a run of 3 to 12 corpus words (makeQueries):
		// from keyword queries to a sentence, every one hitting postings.
		queries: 512,
		topK:    10,
		// A tenth of the rate the ladder reaches on a 2-vCPU Xeon VM
		// when no stall ends it early (5,700 to 6,300 q/s over 60-second
		// windows), rounded: light load, so the p50 shows per-query cost
		// rather than queueing.
		nominalQPS: 580,
		// About ten times the p50 at the nominal rate (0.55 ms).
		p99Limit: 5 * time.Millisecond,
		// A republish takes ~0.7 s: five put about a third of the main
		// window beside a publish, and give publish_s five samples.
		republishes: 5,
		// At least 145 queries a rung; the ladder climbs tenfold from the
		// nominal rate (25 rungs) in the 8 s a 20-second window leaves.
		ladderStep: 250 * time.Millisecond,
	}
}

const indexName = "idx"

// serveEnv is a set-up serving workload: the server on a loopback
// listener with the index published, the reference answers, and the
// clients.
type serveEnv struct {
	spec      serveSpec
	pool      *par.Pool
	corpusDir string
	srv       *serve.Server
	hs        *http.Server
	served    sync.WaitGroup
	base      string
	planBody  []byte
	bodies    [][]byte            // JSON query requests
	queries   []string            // the query texts
	want      [][]simsearch.Match // BruteForceTopK on the reference vectors
	ref       *workflow.TFKMReport
	refDigest clusteringDigest
	cfg       workflow.TFKMConfig
	clients   []*http.Client // query connections, one each
	pub       *http.Client   // the publisher's connection

	mu       sync.Mutex
	versions map[uint64]bool // published versions
	seen     map[uint64]int  // queries answered per reported version
	firstErr error           // the first failed query, for the report
}

// publishStats is one republish as measured from outside.
type publishStats struct {
	wall            time.Duration
	alloc           uint64
	queuedMS, ranMS float64
}

// setupServe computes the reference clustering of corpus c (written under
// work/data/corpus) and the reference answers, boots the server and
// publishes the index.
func setupServe(work string, c *corpus.Corpus, spec serveSpec, seed uint64, pool *par.Pool, conns int, probe *taskProbe) (*serveEnv, error) {
	e := &serveEnv{spec: spec, pool: pool, versions: make(map[uint64]bool), seen: make(map[uint64]int)}
	dataDir := filepath.Join(work, "data")
	e.corpusDir = filepath.Join(dataDir, "corpus")
	// The reference is the plan the server runs for this request, on the
	// bulk plan and the local backend.
	e.cfg = batchSpec{k: spec.k}.config(workflow.LocalBackend{})
	e.cfg.KMeans.MaxIter = 0 // a plan request cannot pin iterations
	js, ref, err := runJob(e.corpusDir, filepath.Join(work, "ref"), pool, e.cfg)
	if err != nil {
		return nil, fmt.Errorf("reference job: %w", err)
	}
	e.ref, e.refDigest = ref, js.digest
	e.cfg.Shards = -1 // what the server's plan requests: auto shards
	if err := e.makeQueries(c, seed); err != nil {
		return nil, err
	}
	e.planBody, _ = json.Marshal(serve.PlanRequest{Corpus: "corpus", K: spec.k, Seed: 1, Publish: indexName})

	env := workflow.NewEnv(pool)
	env.ScratchDir = filepath.Join(work, "server")
	if err := os.MkdirAll(env.ScratchDir, 0o755); err != nil {
		return nil, err
	}
	if probe != nil {
		env.Backend = localProbe{p: probe}
	}
	if e.srv, err = serve.New(serve.Config{Env: env, DataDir: dataDir}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.served.Add(1)
	go func() {
		defer e.served.Done()
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	newClient := func() *http.Client {
		return &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		}
	}
	for i := 0; i < conns; i++ {
		e.clients = append(e.clients, newClient())
	}
	e.pub = newClient()
	if _, err := e.publish(); err != nil {
		e.close()
		return nil, fmt.Errorf("initial publish: %w", err)
	}
	if err := e.verifyArtifact(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// makeQueries draws the query pool — runs of 3 to 12 consecutive words of
// random corpus documents — and computes each query's reference answer.
func (e *serveEnv) makeQueries(c *corpus.Corpus, seed uint64) error {
	tf := e.ref.Clustering.TFIDF
	vocab, err := tfidf.NewQueryVocab(tf, e.cfg.TFIDF)
	if err != nil {
		return err
	}
	vec := vocab.NewVectorizer()
	rng := rand.New(rand.NewPCG(seed, 0x7365727665)) // "serve"
	var qv sparse.Vector
	for len(e.queries) < e.spec.queries {
		words := strings.Fields(string(c.Docs[rng.IntN(c.Len())]))
		n := 3 + rng.IntN(10)
		if len(words) < n {
			continue
		}
		at := rng.IntN(len(words) - n + 1)
		q := strings.Join(words[at:at+n], " ")
		vec.Vectorize([]byte(q), &qv)
		body, _ := json.Marshal(serve.QueryRequest{Text: q, K: e.spec.topK})
		e.queries = append(e.queries, q)
		e.bodies = append(e.bodies, body)
		e.want = append(e.want, simsearch.BruteForceTopK(tf.Vectors, &qv, e.spec.topK))
	}
	return nil
}

// close stops the server and waits for it.
func (e *serveEnv) close() {
	e.hs.Close()
	e.served.Wait()
	for _, c := range append(e.clients, e.pub) {
		c.CloseIdleConnections()
	}
}

// sameMatches reports whether served matches equal the reference bit for
// bit.
func sameMatches(got []serve.QueryMatch, want []simsearch.Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Doc != want[i].Doc || got[i].Score != want[i].Score {
			return false
		}
	}
	return true
}

// query sends query i over connection conn and checks the answer.
func (e *serveEnv) query(conn, i int) error {
	err := e.queryOnce(conn, i)
	if err != nil {
		e.mu.Lock()
		if e.firstErr == nil {
			e.firstErr = err
		}
		e.mu.Unlock()
	}
	return err
}

func (e *serveEnv) queryOnce(conn, i int) error {
	qi := i % len(e.bodies)
	resp, err := e.clients[conn].Post(e.base+"/v1/indexes/"+indexName+"/query", "application/json",
		bytes.NewReader(e.bodies[qi]))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("query: status %d", resp.StatusCode)
	}
	var qr serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return fmt.Errorf("query: %w", err)
	}
	e.mu.Lock()
	e.seen[qr.Version]++
	e.mu.Unlock()
	if !sameMatches(qr.Matches, e.want[qi]) {
		return fmt.Errorf("query %q: %w", e.queries[qi], errWrong)
	}
	return nil
}

// publish republishes the corpus through POST /v1/plans and checks the
// job the server ran against the reference clustering.
func (e *serveEnv) publish() (publishStats, error) {
	var ps publishStats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	resp, err := e.pub.Post(e.base+"/v1/plans", "application/json", bytes.NewReader(e.planBody))
	if err != nil {
		return ps, err
	}
	var pr serve.PlanResponse
	derr := json.NewDecoder(resp.Body).Decode(&pr)
	resp.Body.Close()
	ps.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	ps.alloc = m1.TotalAlloc - m0.TotalAlloc
	ps.queuedMS, ps.ranMS = pr.QueuedMS, pr.RanMS
	switch {
	case resp.StatusCode != http.StatusOK:
		return ps, fmt.Errorf("publish: status %d: %s", resp.StatusCode, pr.Explain)
	case derr != nil:
		return ps, fmt.Errorf("publish: %w", derr)
	case pr.Published == nil:
		return ps, errors.New("publish: no index published")
	}
	res := e.ref.Clustering.Result
	if pr.Iterations != res.Iterations || fmt.Sprint(pr.Clusters) != fmt.Sprint(res.Counts) ||
		pr.Docs != len(res.Assign) || pr.Published.Dim != e.ref.Clustering.TFIDF.Dim() {
		return ps, fmt.Errorf("publish: version %d: %w", pr.Published.Version, errWrong)
	}
	e.mu.Lock()
	e.versions[pr.Published.Version] = true
	e.mu.Unlock()
	return ps, nil
}

// verifyArtifact checks the current artifact in-process: every query's
// top-k is the reference answer, bit for bit.
func (e *serveEnv) verifyArtifact() error {
	art, ok := e.srv.Registry().Get(indexName)
	if !ok {
		return errors.New("verify: index not published")
	}
	for i, q := range e.queries {
		if !sameTopK(art.TopK([]byte(q), e.spec.topK), e.want[i]) {
			return fmt.Errorf("verify: version %d, query %q: %w", art.Version, q, errWrong)
		}
	}
	return nil
}

// sameTopK reports whether two in-process answers are equal bit for bit.
func sameTopK(got, want []simsearch.Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// unknownVersions counts the answers since the last call that reported a
// version never published.
func (e *serveEnv) unknownVersions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for v, c := range e.seen {
		if !e.versions[v] {
			n += c
		}
	}
	clear(e.seen)
	return n
}

// mainWindow runs the nominal-rate query stream for dur with the
// republishes spread through it, and returns both.
func (e *serveEnv) mainWindow(r *run, dur time.Duration) (ladderStep, []publishStats) {
	var pubs []publishStats
	var perr []error
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		for i := 1; i <= e.spec.republishes; i++ {
			// Republish i is due at i/(n+1) of the window, or as soon as
			// the one before it returns.
			t := time.NewTimer(time.Until(start.Add(dur * time.Duration(i) / time.Duration(e.spec.republishes+1))))
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
			}
			// Every republish starts from a collected heap, as every batch
			// job does, so its time and allocation do not depend on when
			// the collector last ran.
			runtime.GC()
			ps, err := e.publish()
			if err != nil {
				perr = append(perr, err)
			} else {
				pubs = append(pubs, ps)
			}
		}
	}()
	st := openLoop(e.spec.nominalQPS, dur, len(e.clients), e.query)
	close(stop)
	wg.Wait()
	for _, err := range perr {
		r.count(err)
	}
	for range pubs {
		r.count(nil)
	}
	e.countQueries(r, st)
	return st, pubs
}

// countQueries adds a step's queries to the run's operation counts.
func (e *serveEnv) countQueries(r *run, st ladderStep) {
	r.attempted += len(st.Lat) + st.Failed
	r.failed += st.Failed
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.firstErr != nil {
		fmt.Fprintf(r.out, "operation failed: %v (%d failed queries)\n", e.firstErr, st.Failed)
		e.firstErr = nil
	}
}

// runServe measures the serving workload: set up, the main window at the
// nominal rate with republishes, then the rate ladder.
func runServe(r *run, spec serveSpec) error {
	conns := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	var probe *taskProbe
	if r.trace {
		probe = &taskProbe{}
	}
	// The indexed corpus is the deployment's data and stays fixed; the
	// seed draws the traffic. A corpus drawn from the seed would make
	// every republish's work depend on it: the plan runs K-Means to
	// convergence, which takes 2 to 4 iterations depending on the corpus.
	start := time.Now()
	c, err := writeCorpus(filepath.Join(r.work, "data", "corpus"), spec.corpus, r.pool)
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	r.notef("corpus generated and written in %.3f s (not part of setup_s)", time.Since(start).Seconds())
	var env *serveEnv
	var setupTimes []float64
	for i := 0; i < r.setups; i++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		var err error
		if env, err = setupServe(r.work, c, spec, r.seed, r.pool, conns, probe); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer env.close()
	r.set("setup_s", median(setupTimes))
	if probe != nil {
		probe.tasks.Store(0)
		probe.taskNS.Store(0)
	}

	r.resetPeakRSS() // the peak covers the main window only
	mainDur := r.window * 6 / 10
	if r.trace {
		mainDur = r.window / 2
	}
	st, pubs := env.mainWindow(r, mainDur)
	r.set("peak_rss_mb", peakRSSMB()) // before the ladder, whose work varies
	if err := env.verifyArtifact(); !r.count(err) {
		return nil
	}
	if n := env.unknownVersions(); n > 0 {
		r.failed += n
		fmt.Fprintf(r.out, "%d answers reported an unpublished version\n", n)
	}
	lat := seconds(st.Lat)
	var walls, allocs, queued, ran []float64
	for _, p := range pubs {
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, float64(p.alloc)/1e6)
		queued = append(queued, p.queuedMS)
		ran = append(ran, p.ranMS)
	}
	if r.trace {
		if n := float64(len(pubs)); n > 0 {
			r.set("workflow.tasks", float64(probe.tasks.Load())/n)
			r.set("workflow.task_s", time.Duration(probe.taskNS.Load()).Seconds()/n)
		}
		r.set("serve.publish_queue_ms", median(queued))
		r.set("serve.publish_run_ms", median(ran))
		r.set("loadgen.lag_p99_ms", quantile(seconds(st.Lag), 0.99)*1e3)
		return traceServe(r, env, median(lat)*1e6, time.Now().Add(r.window-mainDur))
	}
	r.set("job_s", median(walls))
	r.set("publish_s", median(walls))
	r.set("alloc_mb", median(allocs))
	r.set("query_p50_ms", median(lat)*1e3)
	q := supportedQuantile(len(lat), 0.99)
	r.set("query_p99_ms", quantile(lat, q)*1e3)
	if q != 0.99 {
		r.notef("query_p99_ms reports the p%g: too few queries for the p99", q*100)
	}
	r.notef("main window: %d queries at %g/s, %d republishes, lag p99 %.3f ms",
		len(lat)+st.Failed, spec.nominalQPS, len(pubs), quantile(seconds(st.Lag), 0.99)*1e3)

	// The ladder: geometric rungs 10% apart from the nominal rate.
	end := time.Now().Add(r.window - mainDur)
	steps := climbLadder(spec.nominalQPS, 0.10, spec.p99Limit,
		func() bool { return time.Now().Add(spec.ladderStep).Before(end) },
		func(rate float64) ladderStep {
			s := openLoop(rate, spec.ladderStep, len(env.clients), env.query)
			env.countQueries(r, s)
			return s
		})
	if n := env.unknownVersions(); n > 0 {
		r.failed += n
	}
	maxQPS := maxPassingRate(steps, spec.p99Limit)
	r.set("query_max_qps", maxQPS)
	if len(steps) > 0 && steps[len(steps)-1].meets(spec.p99Limit) {
		r.notef("query_max_qps is a lower bound: the ladder ran out of time at %.0f/s", maxQPS)
	}
	return nil
}

// traceServe measures the serving layers from outside: vectorize and
// top-k timed in-process on every query, the index build, and rounds of
// untraced job plus layer replay of the publish job until the deadline.
func traceServe(r *run, env *serveEnv, httpP50us float64, deadline time.Time) error {
	art, ok := env.srv.Registry().Get(indexName)
	if !ok {
		return errors.New("trace: index not published")
	}
	vec := art.Vocab.NewVectorizer()
	srch := simsearch.NewSearcher(art.Index)
	var vecUS, topUS, postings []float64
	var qv sparse.Vector
	for pass := 0; pass < 2; pass++ {
		for i, q := range env.queries {
			t0 := time.Now()
			vec.Vectorize([]byte(q), &qv)
			t1 := time.Now()
			got := srch.TopK(&qv, env.spec.topK)
			t2 := time.Now()
			var err error
			if !sameTopK(got, env.want[i]) {
				err = fmt.Errorf("in-process query %q: %w", q, errWrong)
			}
			if !r.count(err) {
				continue
			}
			vecUS = append(vecUS, t1.Sub(t0).Seconds()*1e6)
			topUS = append(topUS, t2.Sub(t1).Seconds()*1e6)
			if pass == 0 {
				n := 0
				for _, t := range qv.Idx {
					n += art.Index.PostingLen(t)
				}
				postings = append(postings, float64(n))
			}
		}
	}
	r.set("serve.vectorize_us", median(vecUS))
	r.set("serve.topk_us", median(topUS))
	r.set("serve.http_us", httpP50us-median(vecUS)-median(topUS))
	r.set("serve.postings_per_query", median(postings))

	tf := env.ref.Clustering.TFIDF
	var builds []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := simsearch.Build(tf.Vectors, tf.Dim(), env.pool); !r.count(err) {
			continue
		}
		builds = append(builds, time.Since(start).Seconds())
	}
	r.set("simsearch.build_s", median(builds))

	// The publish job's layers, as on the batch workloads.
	var untraced, replayWall, gcCycles, gcPause []float64
	self := make(map[string][]float64)
	var last *replayResult
	scratch := filepath.Join(r.work, "trace")
	for r.more(deadline, len(untraced)) {
		js, _, err := runJob(env.corpusDir, scratch, env.pool, env.cfg)
		if !r.count(err) {
			continue
		}
		rr, err := replayJob(env.corpusDir, scratch, env.pool, env.cfg)
		if err == nil && !reflect.DeepEqual(rr.digest, env.refDigest) {
			err = fmt.Errorf("replay: %w", errWrong)
		}
		if !r.count(err) {
			continue
		}
		untraced = append(untraced, js.wall.Seconds())
		gcCycles = append(gcCycles, float64(js.gcCycles))
		gcPause = append(gcPause, float64(js.gcPause)/1e6)
		replayWall = append(replayWall, rr.wall())
		for name, v := range layerTimes(rr.spans) {
			self[name] = append(self[name], v)
		}
		last = rr
	}
	r.setReplayLayers(self, last)
	r.set("runtime.gc_cycles", median(gcCycles))
	r.set("runtime.gc_pause_ms", median(gcPause))
	r.reconcile(self, median(untraced), median(replayWall), math.NaN())
	return nil
}
