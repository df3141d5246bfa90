package workflow

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hpa/internal/dict"
	"hpa/internal/flatwire"
	"hpa/internal/kmeans"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
)

// This file holds the built-in worker kernels — the serializable forms of
// the shard tasks that can leave the coordinator process — their
// worker-side state, and the Remotable implementations of the operators
// that produce them:
//
//   - tfidf.count: a corpus shard described by pario.SourceSpec in, the
//     shard's term counts (tfidf.WireShardCounts, DF included) back;
//   - tfidf.transform: a shard's counts plus the global term table in,
//     the shard's score vectors (*tfidf.VectorShard) back;
//   - kmeans.assign: one loop shard's assignment iteration — previous
//     assignments in (plus the iteration's centroids, on the first task
//     each worker receives per iteration), the shard's kmeans.Accum (wire
//     form) and new assignments back. The shard's documents ship once, on
//     its first contact, into a worker-side session that backend affinity
//     keeps on one worker; the centroid table is decoded once per worker
//     per iteration and shared by all of the loop's shards on that worker;
//   - kmeans.seed: one K-Means++ seed round's min-distance scan over one
//     loop shard — the last chosen seed and the shard's current distance
//     window in, the min-updated window back. It shares the assignment
//     loop's sessions (same affinity key), so the shard's documents ship
//     once for seeding and iterations combined;
//   - workflow.release: the keys of finished loop shards and count
//     sessions in; the worker frees the state behind them.
//
// Kernels run the same functions the local path runs (tfidf.CountShard,
// tfidf.TransformShard, kmeans.AssignRange), so remote results are
// bit-identical to local ones by construction; the wire forms only ever
// flatten dictionaries, accumulators and centroid rows, never recompute
// scores. Arguments and replies are all flat (args.go), floats as IEEE 754
// bit patterns. The transform kernel additionally resolves two
// worker-side caches before computing: the global term table by content
// hash (shipped as a hash, pulled inline only on the first miss per
// worker) and the shard's phase-1 counts by session key (cached by the
// count kernel on the same worker, routed back by affinity).

func init() {
	RegisterKernel("tfidf.count", runCountKernel)
	RegisterKernel("tfidf.transform", runTransformKernel)
	registerKernel("kmeans.assign", kernel{run: runKMAssignKernel, admit: admitKMAssign})
	RegisterKernel("kmeans.seed", runKMSeedKernel)
	RegisterKernel(releaseOp, runReleaseKernel)
}

// workerPool is the worker process's compute pool, shared by every kernel
// invocation (kernels may serve several shards concurrently).
var workerPool = sync.OnceValue(func() *par.Pool { return par.NewPool(runtime.GOMAXPROCS(0)) })

// runCountKernel executes phase 1 over the described shard on the worker
// and replies with the shard's full term counts, DF included.
func runCountKernel(r *flatwire.Reader) ([]byte, error) {
	a, err := decodeCountTaskArgs(r)
	if err != nil {
		return nil, err
	}
	opts := a.Opts.Options()
	readers := workerPool().Workers()
	sc, err := tfidf.CountShard(a.Shard.Open(nil), readers, opts)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel tfidf.count: %w", err)
	}
	// CountShard derives [Lo, Hi) from SubSources; a spec-opened shard is a
	// plain FileSource, so restore the global range from the descriptor.
	sc.Lo, sc.Hi = a.Shard.Lo, a.Shard.Hi
	w := sc.Wire(true)
	if a.Session != "" {
		// Cache after Wire copied the contents: the reply still carries
		// everything the coordinator's DF merge needs, while the live
		// dictionaries stay here for the transform task.
		cacheCounts(a.Session, sc)
	}
	return w.EncodeFlat(nil), nil
}

// Transform reply framing: a magic header and a miss bitmask, followed by
// the flat VectorShard payload only when no body was missing.
const (
	transformReplyMagic uint32 = 0x48505452 // "HPTR"
	// needGlobalFlag reports the worker has no table under GlobalHash.
	needGlobalFlag uint32 = 1 << 0
	// needCountsFlag reports the worker has no counts under CountsSession.
	needCountsFlag uint32 = 1 << 1
)

// runTransformKernel executes phase 2 over one shard on the worker, or
// replies with a miss bitmask when a keyed body (global table, cached
// counts) is absent — the coordinator then re-sends the task with the
// missing bodies inlined.
func runTransformKernel(r *flatwire.Reader) ([]byte, error) {
	a, err := decodeTransformTaskArgs(r)
	if err != nil {
		return nil, err
	}
	if a.GlobalFlat != nil {
		globalInlineShips.Add(1)
	}
	opts := a.Opts.Options()
	// Resolve the global table: content-hash cache first, else the inlined
	// body (cached for every later shard this worker transforms).
	g := cachedGlobal(a.GlobalHash, opts.DictKind)
	if g == nil && a.GlobalFlat != nil {
		wg, err := tfidf.DecodeFlatWireGlobal(a.GlobalFlat)
		if err != nil {
			return nil, fmt.Errorf("workflow: kernel tfidf.transform: %w", err)
		}
		g = wg.Global(opts.DictKind)
		storeGlobal(a.GlobalHash, opts.DictKind, g)
	}
	// Resolve the counts: an inlined body wins; otherwise the count
	// kernel's cached live shard. The cache entry is not consumed yet — a
	// global miss must leave it in place for the resend.
	var sc *tfidf.ShardCounts
	fromCache := false
	if a.Counts != nil {
		sc = a.Counts.ShardCounts(opts)
	} else if a.CountsSession != "" {
		sc = peekCounts(a.CountsSession)
		fromCache = sc != nil
	}
	var flags uint32
	if g == nil {
		flags |= needGlobalFlag
	}
	if sc == nil {
		flags |= needCountsFlag
	}
	if flags != 0 {
		b := flatwire.AppendU32(nil, transformReplyMagic)
		return flatwire.AppendU32(b, flags), nil
	}
	vs := tfidf.TransformShard(g, sc, workerPool(), opts)
	if fromCache {
		dropCounts(a.CountsSession) // TransformShard consumed the dictionaries
	}
	b := flatwire.AppendU32(nil, transformReplyMagic)
	b = flatwire.AppendU32(b, 0)
	return vs.EncodeFlat(b), nil
}

// workerCacheTTL bounds how long an idle worker-side cache entry (global
// table, shard counts, loop sessions) survives; entries are evicted lazily
// on the next kernel call. Loop state is normally freed long before, by
// the coordinator's release request; the TTL is the backstop for a
// coordinator that died without sending it.
const workerCacheTTL = 10 * time.Minute

// globalInlineShips counts transform arguments that arrived with the
// global term table inlined — the resend path after a worker cache miss.
// In steady state a table body reaches a worker process at most once per
// (hash, kind); the ship-bound test asserts on this counter.
var globalInlineShips atomic.Int64

// globalReships counts, coordinator-side, how many transform tasks had to
// re-ship the global term table after a worker cache miss — the same
// traffic globalInlineShips counts on the worker, observable from the
// process that scheduled it (hpa-serve exposes it on /metrics).
var globalReships atomic.Int64

// GlobalReships returns the process-wide count of global term-table
// re-ships this coordinator performed.
func GlobalReships() int64 { return globalReships.Load() }

// globalCacheKey identifies one cached global term table: the content hash
// plus the dictionary kind the lookup table was rebuilt with (two runs may
// share a corpus but configure different dictionaries).
type globalCacheKey struct {
	hash uint64
	kind dict.Kind
}

type globalCacheEntry struct {
	g       *tfidf.Global
	lastUse time.Time
}

var globalCache = struct {
	sync.Mutex
	m map[globalCacheKey]*globalCacheEntry
}{m: make(map[globalCacheKey]*globalCacheEntry)}

// cachedGlobal returns the cached table for (hash, kind), nil on a miss,
// evicting expired entries on the way.
func cachedGlobal(hash uint64, kind dict.Kind) *tfidf.Global {
	now := time.Now()
	key := globalCacheKey{hash, kind}
	globalCache.Lock()
	defer globalCache.Unlock()
	for k, e := range globalCache.m {
		if k != key && now.Sub(e.lastUse) > workerCacheTTL {
			delete(globalCache.m, k)
		}
	}
	e := globalCache.m[key]
	if e == nil {
		return nil
	}
	e.lastUse = now
	return e.g
}

// storeGlobal caches a rebuilt table under (hash, kind).
func storeGlobal(hash uint64, kind dict.Kind, g *tfidf.Global) {
	globalCache.Lock()
	defer globalCache.Unlock()
	globalCache.m[globalCacheKey{hash, kind}] = &globalCacheEntry{g: g, lastUse: time.Now()}
}

type countCacheEntry struct {
	sc      *tfidf.ShardCounts
	lastUse time.Time
}

var countCache = struct {
	sync.Mutex
	m map[string]*countCacheEntry
}{m: make(map[string]*countCacheEntry)}

// cacheCounts keeps a count kernel's live shard for the matching transform
// task, evicting expired entries on the way. Re-caching a session key
// overwrites the entry with identical content (shard counts are a pure
// function of the shard and the options).
func cacheCounts(session string, sc *tfidf.ShardCounts) {
	now := time.Now()
	countCache.Lock()
	defer countCache.Unlock()
	for k, e := range countCache.m {
		if k != session && now.Sub(e.lastUse) > workerCacheTTL {
			delete(countCache.m, k)
		}
	}
	countCache.m[session] = &countCacheEntry{sc: sc, lastUse: now}
}

// peekCounts returns the cached shard without consuming the entry (a
// transform task that misses the global must leave the counts for its
// resend), nil on a miss.
func peekCounts(session string) *tfidf.ShardCounts {
	countCache.Lock()
	defer countCache.Unlock()
	e := countCache.m[session]
	if e == nil {
		return nil
	}
	e.lastUse = time.Now()
	return e.sc
}

// dropCounts removes a consumed entry.
func dropCounts(session string) {
	countCache.Lock()
	defer countCache.Unlock()
	delete(countCache.m, session)
}

// KMAssignReply is the kmeans.assign kernel reply: exactly the state the
// coordinator's ordered per-iteration reduce needs.
type KMAssignReply struct {
	// Accum is the shard's accumulator set in wire form.
	Accum *kmeans.AccumWire
	// Assign holds the shard's new assignments.
	Assign []int32
	// Dists holds per-document distances when the init requested them.
	Dists []float64
}

// kmLoop is one K-Means loop's state on a worker: the live shard sessions
// it serves and the loop's centroid table — the dense centroids of one
// iteration plus their blocked-kernel layout, installed once per
// iteration from the first task that carries them and shared read-only by
// every shard of the loop on this worker. The coordinator's per-iteration
// barrier guarantees no task of iteration i still runs when iteration
// i+1's table is installed over it.
type kmLoop struct {
	// Guarded by kmWorker's mutex.
	key      string
	sessions int
	lastUse  time.Time

	mu   sync.Mutex
	iter int  // iteration the table holds or awaits; -1 before the first
	ok   bool // the table holds iter's centroids
	// ready is open while an admitted inline table for iter is pending;
	// tasks referring to iter wait on it instead of missing.
	ready  chan struct{}
	cents  [][]float64
	cnorms []float64
	layout *sparse.BlockLayout
}

// expect records, in frame order, that an inline table for iter is on
// its way, so tasks read after it wait for the install.
func (l *kmLoop) expect(iter int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.iter == iter && (l.ok || l.ready != nil) {
		return
	}
	l.settle() // waiters of another iteration miss rather than hang
	l.iter, l.ok, l.ready = iter, false, make(chan struct{})
}

// settle wakes the waiters of a pending table.
func (l *kmLoop) settle() {
	if l.ready != nil {
		close(l.ready)
		l.ready = nil
	}
}

// abandon settles a pending table for iter that failed to install; its
// waiters miss and have the table re-sent.
func (l *kmLoop) abandon(iter int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.iter == iter && !l.ok {
		l.settle()
	}
}

// install makes rows the loop's table for iter, reusing the previous
// iteration's allocations. Installing an iteration the table already
// holds is a no-op (a resend raced the first install).
func (l *kmLoop) install(iter int, rows *CentroidRows, k, dim int) error {
	if len(rows.Idx) != k || rows.Dim != dim {
		return fmt.Errorf("centroid table of %d rows over dim %d for k=%d, dim=%d", len(rows.Idx), rows.Dim, k, dim)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.iter == iter && l.ok {
		return nil
	}
	if l.cents == nil {
		l.cents = make([][]float64, k)
		for j := range l.cents {
			l.cents[j] = make([]float64, dim)
		}
		if b := kmeans.BlockSize(k); b > 0 {
			l.layout = sparse.NewBlockLayout(k, dim, b)
		}
	}
	rows.denseInto(l.cents)
	l.cnorms = rows.Norms
	if l.layout != nil {
		// The blocked kernel never changes results, so the layout is purely
		// a work-shape choice.
		l.layout.Fill(l.cents)
	}
	l.iter, l.ok = iter, true
	l.settle()
	return nil
}

// table returns the loop's table for iter, waiting out a pending install;
// ok is false on a miss.
func (l *kmLoop) table(iter int) (cents [][]float64, cnorms []float64, layout *sparse.BlockLayout, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.iter == iter && !l.ok && l.ready != nil {
		ready := l.ready
		l.mu.Unlock()
		<-ready
		l.mu.Lock()
	}
	if l.iter != iter || !l.ok {
		return nil, nil, nil, false
	}
	return l.cents, l.cnorms, l.layout, true
}

// kmSession is a worker-side loop shard: the cached documents plus the
// recycled accumulator, reused across the loop's iterations.
type kmSession struct {
	loop *kmLoop

	mu    sync.Mutex
	docs  []sparse.Vector
	norms []float64
	k     int
	dim   int
	acc   *kmeans.Accum
	dists []float64
	bp    *kmeans.BoundsPass

	lastUse time.Time // guarded by kmWorker's mutex
}

// kmWorker is the worker process's K-Means state: loops by loop key,
// shard sessions by session key. The release request frees a finished
// loop's sessions, and its table with the last of them; idle entries
// older than workerCacheTTL are evicted lazily, the backstop for a
// coordinator that died before releasing.
var kmWorker = struct {
	sync.Mutex
	loops    map[string]*kmLoop
	sessions map[string]*kmSession
}{loops: make(map[string]*kmLoop), sessions: make(map[string]*kmSession)}

// kmLoopFor returns the loop entry for key, creating it; kmWorker's mutex
// must be held.
func kmLoopFor(key string, now time.Time) *kmLoop {
	l := kmWorker.loops[key]
	if l == nil {
		l = &kmLoop{key: key, iter: -1}
		kmWorker.loops[key] = l
	}
	l.lastUse = now
	return l
}

// dropKMSession frees one session, and its loop with the loop's last
// session; kmWorker's mutex must be held.
func dropKMSession(key string) {
	s := kmWorker.sessions[key]
	if s == nil {
		return
	}
	delete(kmWorker.sessions, key)
	if s.loop.sessions--; s.loop.sessions == 0 {
		delete(kmWorker.loops, s.loop.key)
	}
}

// evictIdleKM drops sessions and session-less loops idle past the TTL;
// kmWorker's mutex must be held.
func evictIdleKM(now time.Time) {
	for key, s := range kmWorker.sessions {
		if now.Sub(s.lastUse) > workerCacheTTL {
			dropKMSession(key)
		}
	}
	for key, l := range kmWorker.loops {
		if l.sessions == 0 && now.Sub(l.lastUse) > workerCacheTTL {
			delete(kmWorker.loops, key)
		}
	}
}

// kmSessionFor returns (creating if init allows) the session for one loop
// shard, evicting idle state on the way.
func kmSessionFor(loop string, shard int, init *KMShardInit) (*kmSession, error) {
	now := time.Now()
	key := sessionKey(loop, shard)
	kmWorker.Lock()
	defer kmWorker.Unlock()
	evictIdleKM(now)
	s := kmWorker.sessions[key]
	if s == nil {
		if init == nil {
			return nil, fmt.Errorf("loop shard session %q lost (worker restarted mid-loop?)", key)
		}
		s = &kmSession{
			loop:  kmLoopFor(loop, now),
			docs:  init.Vectors,
			norms: init.Norms,
			k:     init.K,
			dim:   init.Dim,
			acc:   kmeans.NewAccumFor(init.K, init.Dim),
		}
		if init.WantDists {
			s.dists = make([]float64, len(init.Vectors))
		}
		if init.Prune {
			s.bp = kmeans.NewBoundsPass(len(init.Vectors), init.Dim)
			if init.Elkan {
				s.bp.EnableElkan(init.K)
			}
		}
		s.loop.sessions++
		kmWorker.sessions[key] = s
	}
	s.lastUse = now
	s.loop.lastUse = now
	return s, nil
}

// admitKMAssign is the kmeans.assign admit hook: a task carrying its
// iteration's centroid table marks the table pending before any later
// request on the connection is dispatched, so the loop's other shards on
// this worker wait for the install instead of missing it.
func admitKMAssign(body []byte) {
	r := flatwire.NewReader(body)
	a, flags := consumeKMAssignHeader(r)
	if r.Err() != nil || flags&assignCentroids == 0 {
		return
	}
	kmWorker.Lock()
	l := kmLoopFor(a.Loop, time.Now())
	kmWorker.Unlock()
	l.expect(a.Iter)
}

// kmAssignReplyMagic identifies a flat kmeans.assign reply buffer.
const kmAssignReplyMagic uint32 = 0x48504b41 // "HPKA"

// needCentroidsFlag is the kmeans.assign reply's miss status: the worker
// holds no table for the task's (loop, iteration).
const needCentroidsFlag uint32 = 1 << 0

// runKMAssignKernel executes one loop shard's assignment iteration on the
// worker: the same kmeans.AssignRange the coordinator would run, over the
// session's cached documents and the loop's shared centroid table.
func runKMAssignKernel(r *flatwire.Reader) ([]byte, error) {
	a, flags := consumeKMAssignHeader(r)
	if flags&assignCentroids != 0 && r.Err() == nil {
		// Whatever happens below, an admitted table must settle so the
		// loop's other tasks stop waiting for it.
		defer func() {
			kmWorker.Lock()
			l := kmWorker.loops[a.Loop]
			kmWorker.Unlock()
			if l != nil {
				l.abandon(a.Iter)
			}
		}()
	}
	if err := decodeKMAssignRest(r, a, flags); err != nil {
		return nil, err
	}
	s, err := kmSessionFor(a.Loop, a.Shard, a.Init)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel kmeans.assign: %w", err)
	}
	if a.Centroids != nil {
		if err := s.loop.install(a.Iter, a.Centroids, s.k, s.dim); err != nil {
			return nil, fmt.Errorf("workflow: kernel kmeans.assign: loop shard %q: %w", sessionKey(a.Loop, a.Shard), err)
		}
	}
	cents, cnorms, layout, ok := s.loop.table(a.Iter)
	if !ok {
		b := flatwire.AppendU32(nil, kmAssignReplyMagic)
		return flatwire.AppendU32(b, needCentroidsFlag), nil
	}
	rep, err := s.assign(a, cents, cnorms, layout)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel kmeans.assign: loop shard %q: %w", sessionKey(a.Loop, a.Shard), err)
	}
	return rep.EncodeFlat(), nil
}

// assign runs one iteration of the session's shard against the given
// table.
func (s *kmSession) assign(a *KMAssignTaskArgs, cents [][]float64, cnorms []float64, layout *sparse.BlockLayout) (*KMAssignReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.docs)
	if len(a.Assign) != n {
		return nil, fmt.Errorf("%d previous assignments for %d documents", len(a.Assign), n)
	}
	if s.bp != nil && a.Drift != nil {
		if len(a.Drift) != s.k {
			return nil, fmt.Errorf("%d drifts for k=%d", len(a.Drift), s.k)
		}
		s.bp.SetDrift(a.Drift)
	}
	s.acc.Reset()
	kmeans.AssignRange(0, n, s.k, s.docs, s.norms, cents, cnorms, layout, a.Assign, s.dists, s.bp, s.acc)
	return &KMAssignReply{Accum: s.acc.Wire(), Assign: a.Assign, Dists: s.dists}, nil
}

// EncodeFlat returns the reply in flat layout: magic, a zero miss status,
// the accumulator's flat wire form, then the assignment block and
// (optionally) the distance block. Floats travel as IEEE 754 bits; the
// absorbed state is bit-identical to the worker's.
func (r *KMAssignReply) EncodeFlat() []byte {
	b := flatwire.AppendU32(nil, kmAssignReplyMagic)
	b = flatwire.AppendU32(b, 0)
	b = r.Accum.EncodeFlat(b)
	b = flatwire.AppendU32(b, uint32(len(r.Assign)))
	b = flatwire.AppendI32s(b, r.Assign)
	if r.Dists != nil {
		b = flatwire.AppendU32(b, 1)
		b = flatwire.AppendF64s(b, r.Dists)
	} else {
		b = flatwire.AppendU32(b, 0)
	}
	return b
}

// consumeKMAssignReply decodes a flat kmeans.assign reply from r,
// validating magic, counts, truncation and trailing bytes. A miss status
// returns a nil reply and the status flags.
func consumeKMAssignReply(r *flatwire.Reader) (*KMAssignReply, uint32, error) {
	r.Magic(kmAssignReplyMagic, "kmeans assign reply")
	flags := r.U32()
	if err := r.Err(); err != nil {
		return nil, 0, fmt.Errorf("workflow: decode kmeans.assign reply: %w", err)
	}
	if flags != 0 {
		if flags != needCentroidsFlag {
			return nil, 0, fmt.Errorf("workflow: decode kmeans.assign reply: unknown miss flags %#x", flags)
		}
		return nil, flags, r.Done()
	}
	acc, err := kmeans.ConsumeFlatAccumWire(r)
	if err != nil {
		return nil, 0, fmt.Errorf("workflow: decode kmeans.assign reply: %w", err)
	}
	rep := &KMAssignReply{Accum: acc}
	n := r.Count(4)
	rep.Assign = r.I32s(n)
	switch r.U32() {
	case 0:
	case 1:
		rep.Dists = r.F64s(n)
	default:
		return nil, 0, fmt.Errorf("workflow: decode kmeans.assign reply: bad distance marker")
	}
	if err := r.Done(); err != nil {
		return nil, 0, fmt.Errorf("workflow: decode kmeans.assign reply: %w", err)
	}
	return rep, 0, nil
}

// DecodeFlatKMAssignReply decodes a flat kmeans.assign reply carrying a
// result (a miss status is an error here).
func DecodeFlatKMAssignReply(body []byte) (*KMAssignReply, error) {
	rep, flags, err := consumeKMAssignReply(flatwire.NewReader(body))
	if err == nil && flags != 0 {
		err = fmt.Errorf("workflow: decode kmeans.assign reply: miss status %#x", flags)
	}
	return rep, err
}

// kmSeedReplyMagic identifies a flat kmeans.seed reply buffer.
const kmSeedReplyMagic uint32 = 0x48505344 // "HPSD"

// runKMSeedKernel executes one seed round's scan on the worker: the same
// kmeans.SeedScanRange the coordinator's local path runs, over the
// session's cached documents — so the returned window is bit-identical to
// a local scan. The reply is the magic, a count, then the min-updated
// distance window as IEEE 754 bits.
func runKMSeedKernel(r *flatwire.Reader) ([]byte, error) {
	a, err := decodeKMSeedTaskArgs(r)
	if err != nil {
		return nil, err
	}
	s, err := kmSessionFor(a.Loop, a.Shard, a.Init)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel kmeans.seed: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(a.D2) != len(s.docs) {
		return nil, fmt.Errorf("workflow: kernel kmeans.seed: loop shard %q: %d seed distances for %d documents",
			sessionKey(a.Loop, a.Shard), len(a.D2), len(s.docs))
	}
	kmeans.SeedScanRange(s.docs, &a.Last, a.D2)
	b := flatwire.AppendU32(nil, kmSeedReplyMagic)
	b = flatwire.AppendU32(b, uint32(len(a.D2)))
	return flatwire.AppendF64s(b, a.D2), nil
}

// consumeKMSeedReply decodes a flat kmeans.seed reply from r, validating
// magic, count, truncation and trailing bytes.
func consumeKMSeedReply(r *flatwire.Reader) ([]float64, error) {
	r.Magic(kmSeedReplyMagic, "kmeans seed reply")
	n := r.Count(8)
	d2 := r.F64s(n)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("workflow: decode kmeans.seed reply: %w", err)
	}
	return d2, nil
}

// runReleaseKernel frees the worker state behind the released keys: loop
// shard sessions (and a loop's centroid table with its last session) and
// unconsumed count sessions. Unknown keys are ignored — a key whose state
// already expired, or that never reached this worker.
func runReleaseKernel(r *flatwire.Reader) ([]byte, error) {
	keys, err := decodeReleaseArgs(r)
	if err != nil {
		return nil, err
	}
	kmWorker.Lock()
	for _, k := range keys {
		dropKMSession(k)
	}
	kmWorker.Unlock()
	for _, k := range keys {
		dropCounts(k)
	}
	return nil, nil
}

// workerLoopState reports the K-Means loop sessions and centroid tables
// this process holds as a worker — the leak accounting the tests assert
// on.
func workerLoopState() (sessions, tables int) {
	kmWorker.Lock()
	defer kmWorker.Unlock()
	for _, l := range kmWorker.loops {
		l.mu.Lock()
		if l.cents != nil {
			tables++
		}
		l.mu.Unlock()
	}
	return len(kmWorker.sessions), tables
}

// RemoteTask implements Remotable: a tf-map shard ships when the corpus
// shard has an on-disk identity and the options serialize. With a linked
// transform stage (pair), the task carries a counts-cache session plus the
// matching affinity key, so the shard's transform lands on the same worker
// and reuses the live dictionaries this task leaves behind.
func (o *TFMapOp) RemoteTask(ins []Value, idx, total int) (*RemoteTask, bool) {
	src, ok := ins[0].(pario.Source)
	if !ok {
		return nil, false
	}
	spec, ok := pario.Describe(src)
	if !ok {
		return nil, false
	}
	wopts, ok := o.Opts.Wire()
	if !ok {
		return nil, false
	}
	opts := o.Opts
	pair := o.pair
	args := CountTaskArgs{Shard: *spec, Opts: wopts}
	if pair != nil {
		args.Session = pair.countSession(idx)
	}
	return &RemoteTask{
		Op:       "tfidf.count",
		Args:     func(b []byte, _ int) []byte { return args.AppendFlat(b) },
		Affinity: args.Session,
		Phase:    tfidf.PhaseInputWC,
		Absorb: func(r *flatwire.Reader) (Value, error) {
			w, err := tfidf.ConsumeFlatWireShardCounts(r)
			if err == nil {
				err = r.Done()
			}
			if err != nil {
				return nil, fmt.Errorf("workflow: tfidf.count reply: %w", err)
			}
			if pair != nil {
				pair.markCounted(idx)
			}
			return w.ShardCounts(opts), nil
		},
	}, true
}

// RemoteTask implements Remotable: a transform shard ships by reference
// where it can — the global table always as its content hash (the body is
// pulled by resend only on the first miss per worker), the counts by
// session key when the map stage cached them on a worker — and absorbs the
// flat VectorShard reply. Shards counted locally inline their counts, as
// before.
func (o *TransformOp) RemoteTask(ins []Value, idx, total int) (*RemoteTask, bool) {
	sc, ok := ins[0].(*tfidf.ShardCounts)
	if !ok {
		return nil, false
	}
	g, ok := ins[1].(*tfidf.Global)
	if !ok {
		return nil, false
	}
	wopts, ok := o.Opts.Wire()
	if !ok {
		return nil, false
	}
	pair := o.pair
	args := TransformTaskArgs{GlobalHash: g.ContentHash(), Opts: wopts}
	affinity := ""
	if pair != nil && pair.wasCounted(idx) {
		args.CountsSession = pair.countSession(idx)
		affinity = args.CountsSession
	} else {
		args.Counts = sc.Wire(false)
	}
	return &RemoteTask{
		Op:       "tfidf.transform",
		Args:     func(b []byte, _ int) []byte { return args.AppendFlat(b) },
		Affinity: affinity,
		Phase:    tfidf.PhaseTransform,
		Absorb: func(r *flatwire.Reader) (Value, error) {
			r.Magic(transformReplyMagic, "transform reply")
			flags := r.U32()
			if err := r.Err(); err != nil {
				return nil, fmt.Errorf("workflow: tfidf.transform reply: %w", err)
			}
			if flags&^(needGlobalFlag|needCountsFlag) != 0 {
				return nil, fmt.Errorf("workflow: tfidf.transform reply: unknown miss flags %#x", flags)
			}
			if flags != 0 {
				resend := args
				if flags&needGlobalFlag != 0 {
					resend.GlobalFlat = g.Wire().EncodeFlat(nil)
					globalReships.Add(1)
					if pair != nil {
						pair.noteGlobalShip()
					}
				}
				if flags&needCountsFlag != 0 {
					resend.Counts = sc.Wire(false)
					resend.CountsSession = ""
				}
				return nil, &needResend{Args: resend.AppendFlat}
			}
			vs, err := tfidf.ConsumeFlatVectorShard(r)
			if err == nil {
				err = r.Done()
			}
			if err != nil {
				return nil, fmt.Errorf("workflow: tfidf.transform reply: %w", err)
			}
			return vs, nil
		},
	}, true
}
