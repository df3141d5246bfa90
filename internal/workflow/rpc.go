package workflow

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"hpa/internal/flatwire"
	"hpa/internal/obs"
)

// This file implements the RPC execution backend and its worker side: the
// frame protocol of frame.go carrying (kernel name, flat arguments)
// requests to worker processes and flat replies back. A worker is this
// same binary in worker mode (cmd/hpa-workflow -worker) serving the kernel
// registry; the coordinator's RPCBackend ships every task that has a
// RemoteTask descriptor and runs everything else in-process. Workers keep
// loop-scoped state only (kernels.go): a loop shard's documents, the
// count→transform hand-off, and one centroid table per loop iteration,
// all freed by the release request the coordinator sends when the loop or
// its plan run ends.

// KernelFunc executes one registered worker kernel: it decodes its flat
// arguments from args and returns its flat reply. The value blocks it
// decodes through args are reported back to the coordinator in the reply
// frame.
type KernelFunc func(args *flatwire.Reader) ([]byte, error)

// kernel is one registry entry.
type kernel struct {
	run KernelFunc
	// admit, when set, runs on the connection's reader goroutine before the
	// request is dispatched — in frame order, so state a request announces
	// (an inline centroid table being decoded) is visible to every request
	// read after it.
	admit func(body []byte)
}

var (
	kernelMu sync.RWMutex
	kernels  = make(map[string]kernel)
)

// RegisterKernel adds a kernel to the worker registry under the given op
// name — the name RemoteTask.Op resolves against on the worker. The
// built-in kernels (tfidf.count, tfidf.transform, kmeans.assign,
// kmeans.seed, workflow.release) register themselves; registering a taken
// name, or one longer than 255 bytes, panics, like http.Handle.
func RegisterKernel(name string, fn KernelFunc) {
	registerKernel(name, kernel{run: fn})
}

func registerKernel(name string, k kernel) {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	if len(name) > 255 {
		panic(fmt.Sprintf("workflow: kernel name %q longer than 255 bytes", name))
	}
	if _, dup := kernels[name]; dup {
		panic(fmt.Sprintf("workflow: kernel %q registered twice", name))
	}
	kernels[name] = k
}

// runKernel executes one request and builds its reply. Kernel errors and
// panics become error replies, which the coordinator wraps with worker
// identity.
func runKernel(req *request) (rep *reply) {
	rep = &reply{ID: req.ID}
	kernelMu.RLock()
	k, ok := kernels[req.Op]
	kernelMu.RUnlock()
	if !ok {
		rep.Status = statusErr
		rep.Body = fmt.Appendf(nil, "workflow: worker has no kernel %q (version mismatch?)", req.Op)
		return rep
	}
	r := flatwire.NewReader(req.Body)
	start := time.Now()
	defer func() {
		rep.ComputeNS = int64(time.Since(start))
		rep.ValueRaw, rep.ValueCoded = r.ValueBytes()
		if p := recover(); p != nil {
			rep.Status = statusErr
			rep.Body = fmt.Appendf(nil, "workflow: kernel %s panicked: %v", req.Op, p)
		}
	}()
	body, err := k.run(r)
	if err != nil {
		rep.Status = statusErr
		body = []byte(err.Error())
	}
	rep.Body = body
	return rep
}

// ServeWorkerConn serves the worker protocol on one connection until it
// closes or delivers a malformed frame — the in-process form (net.Pipe)
// the tests and the calibration use. Requests run concurrently; their
// replies are written whole, one frame at a time.
func ServeWorkerConn(conn io.ReadWriteCloser) {
	defer conn.Close()
	var (
		wmu sync.Mutex
		wg  sync.WaitGroup
	)
	defer wg.Wait()
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		req, err := readRequest(br)
		if err != nil {
			return
		}
		kernelMu.RLock()
		admit := kernels[req.Op].admit
		kernelMu.RUnlock()
		if admit != nil {
			admit(req.Body)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := runKernel(req)
			hdr := appendReplyHeader(make([]byte, 0, replyHeader), rep)
			bufs := net.Buffers{hdr, rep.Body}
			wmu.Lock()
			defer wmu.Unlock()
			bufs.WriteTo(conn) // a failed write means the coordinator is gone
		}()
	}
}

// ServeWorker accepts connections on lis and serves each until it closes.
// It returns the first Accept error (closing the listener shuts the worker
// down).
func ServeWorker(lis net.Listener) error {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		go ServeWorkerConn(conn)
	}
}

// ListenAndServeWorker runs a worker on the given TCP address (the
// cmd/hpa-workflow -worker mode). ready, when non-nil, receives the bound
// address once listening — how a parent process spawning workers on ":0"
// learns the chosen ports.
func ListenAndServeWorker(addr string, ready chan<- string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("workflow: worker listen %s: %w", addr, err)
	}
	if ready != nil {
		ready <- lis.Addr().String()
	}
	return ServeWorker(lis)
}

// workerConn is the coordinator's end of one worker connection: requests
// are written whole under wmu, and one reader goroutine hands each reply
// to the call waiting on its id.
type workerConn struct {
	label string
	conn  io.ReadWriteCloser

	// wmu serializes request encoding and writing, so the order in which
	// calls encode their arguments is the order the worker reads them.
	wmu sync.Mutex
	buf []byte // request buffer, reused across calls under wmu

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *reply
	err     error // why the connection is unusable; set once
}

func newWorkerConn(label string, conn io.ReadWriteCloser) *workerConn {
	w := &workerConn{label: label, conn: conn, pending: make(map[uint64]chan *reply)}
	go w.readLoop()
	return w
}

// readLoop delivers replies until the connection fails.
func (w *workerConn) readLoop() {
	br := bufio.NewReaderSize(w.conn, 64<<10)
	for {
		rep, err := readReply(br)
		if err != nil {
			w.fail(err)
			return
		}
		w.mu.Lock()
		ch := w.pending[rep.ID]
		delete(w.pending, rep.ID)
		w.mu.Unlock()
		if ch == nil {
			w.fail(fmt.Errorf("workflow: %w: reply to unknown request %d", flatwire.ErrMalformed, rep.ID))
			return
		}
		ch <- rep
	}
}

// fail marks the connection unusable, closes it and wakes every waiting
// call.
func (w *workerConn) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	pending := w.pending
	w.pending = make(map[uint64]chan *reply)
	w.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
	w.conn.Close()
}

// call sends one request, its body appended by args, and waits for the
// reply. It returns the reply, the request and reply frame sizes, and the
// round trip from the write to the reply's arrival.
func (w *workerConn) call(op string, args func([]byte) []byte) (rep *reply, sent, recv int, rtt time.Duration, err error) {
	ch := make(chan *reply, 1)
	w.wmu.Lock()
	w.mu.Lock()
	if err := w.err; err != nil {
		w.mu.Unlock()
		w.wmu.Unlock()
		return nil, 0, 0, 0, err
	}
	w.nextID++
	id := w.nextID
	w.pending[id] = ch
	w.mu.Unlock()
	b := beginRequest(w.buf[:0], id, op)
	b = endFrame(args(b), 0)
	sent = len(b)
	start := time.Now()
	_, err = w.conn.Write(b)
	if cap(b) <= frameChunk {
		w.buf = b[:0]
	} else {
		w.buf = nil // do not pin a one-off giant frame
	}
	w.wmu.Unlock()
	if err != nil {
		w.fail(err)
		return nil, sent, 0, 0, err
	}
	rep, ok := <-ch
	if !ok {
		w.mu.Lock()
		err = w.err
		w.mu.Unlock()
		return nil, sent, 0, 0, err
	}
	return rep, sent, replyHeader + len(rep.Body), time.Since(start), nil
}

// RPCBackend ships remotable shard tasks to worker processes and runs
// everything else in-process. Tasks without an affinity key are spread
// round-robin; tasks sharing one stick to the worker that first received
// the key. A failed worker call fails the task (and with it the plan run)
// with a wrapped error — there is no silent retry, because a retried loop
// shard could observe different session state and break the bit-identical
// contract.
type RPCBackend struct {
	workers []*workerConn

	mu       sync.Mutex
	affinity map[string]int
	scopes   map[string]map[string]struct{}
	next     int

	// shipEWMA tracks the measured ship time of worker calls — the round
	// trip minus the compute time the worker reports — in nanoseconds, as
	// an exponentially weighted moving average; shipCount counts samples.
	// This is the feedback signal the cost model's RPCShipNS — a loopback
	// lower bound measured at calibration time — can be compared against
	// after a real run (cmd/hpa-workflow prints both).
	shipEWMA  float64
	shipCount int64

	// valRaw and valCoded total the XOR value blocks of every call.
	valRaw, valCoded int64
}

// shipAlpha is the EWMA weight of the newest ship-time sample.
const shipAlpha = 0.2

// releaseOp is the kernel that frees a finished loop's worker state.
const releaseOp = "workflow.release"

func newRPCBackend(workers []*workerConn) *RPCBackend {
	return &RPCBackend{
		workers:  workers,
		affinity: make(map[string]int),
		scopes:   make(map[string]map[string]struct{}),
	}
}

// NewRPCBackend dials the given worker addresses (TCP) and returns a
// backend over them. All workers must be reachable; on error, already
// dialed connections are closed.
func NewRPCBackend(addrs []string) (*RPCBackend, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("workflow: rpc backend needs at least one worker address")
	}
	b := newRPCBackend(nil)
	for _, addr := range addrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Close()
			return nil, fmt.Errorf("workflow: dial worker %s: %w", addr, err)
		}
		b.workers = append(b.workers, newWorkerConn(addr, conn))
	}
	return b, nil
}

// NewRPCBackendConns wraps already-established worker connections (e.g.
// one end of a net.Pipe with ServeWorkerConn on the other) — the
// in-process form used by tests, benchmarks and the calibration.
func NewRPCBackendConns(conns ...io.ReadWriteCloser) *RPCBackend {
	workers := make([]*workerConn, len(conns))
	for i, c := range conns {
		workers[i] = newWorkerConn(fmt.Sprintf("conn%d", i), c)
	}
	return newRPCBackend(workers)
}

// Close closes the worker connections.
func (b *RPCBackend) Close() error {
	var first error
	for _, w := range b.workers {
		if err := w.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Name implements Backend.
func (b *RPCBackend) Name() string { return "rpc" }

// Workers implements Backend.
func (b *RPCBackend) Workers() int { return len(b.workers) }

// pick selects the worker for an affinity key ("" = plain round-robin) and
// reports whether the key was already pinned (an affinity session hit).
// A non-empty scope records the key against the task's plan run, so
// ReleaseScope can drop every pin the run created even when the run never
// reached its own targeted release (an error mid-loop, an operator without
// a finish hook).
func (b *RPCBackend) pick(key, scope string) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if key != "" {
		if i, ok := b.affinity[key]; ok {
			return i, true
		}
	}
	i := b.next % len(b.workers)
	b.next++
	if key != "" {
		b.affinity[key] = i
		if scope != "" {
			set := b.scopes[scope]
			if set == nil {
				set = make(map[string]struct{})
				b.scopes[scope] = set
			}
			set[key] = struct{}{}
		}
	}
	return i, false
}

// unpin drops the given affinity pins and groups the ones that were held
// by worker; b.mu must be held.
func (b *RPCBackend) unpin(keys []string) map[int][]string {
	var held map[int][]string
	for _, k := range keys {
		i, ok := b.affinity[k]
		if !ok {
			continue
		}
		delete(b.affinity, k)
		if held == nil {
			held = make(map[int][]string)
		}
		held[i] = append(held[i], k)
	}
	return held
}

// release sends each worker the keys of the state it holds, so the worker
// frees it now instead of at its TTL. Errors are dropped: a worker whose
// connection failed holds nothing the coordinator can reach, and its idle
// state still expires.
func (b *RPCBackend) release(held map[int][]string) {
	for i, keys := range held {
		b.workers[i].call(releaseOp, func(buf []byte) []byte { return appendReleaseArgs(buf, keys) })
	}
}

// ReleaseAffinity drops affinity pins and tells the workers holding them
// to free the keyed state — how a finished loop frees its worker sessions
// and centroid tables, so a long-lived backend serving many plan runs
// accumulates neither pins nor worker memory.
func (b *RPCBackend) ReleaseAffinity(keys ...string) {
	b.mu.Lock()
	held := b.unpin(keys)
	b.mu.Unlock()
	b.release(held)
}

// ReleaseScope drops every affinity pin recorded under the given plan-run
// scope, and frees the workers' state behind them — the executor calls it
// when Plan.Run returns, success or error. Keys a loop state already
// released are simply absent. This is what keeps a resident serve
// backend's pins and worker memory bounded by the in-flight runs rather
// than by the runs ever admitted.
func (b *RPCBackend) ReleaseScope(scope string) {
	b.mu.Lock()
	keys := make([]string, 0, len(b.scopes[scope]))
	for k := range b.scopes[scope] {
		keys = append(keys, k)
	}
	held := b.unpin(keys)
	delete(b.scopes, scope)
	b.mu.Unlock()
	b.release(held)
}

// PinnedAffinities reports how many affinity pins the backend currently
// holds — observability for tests and the serve path's leak accounting.
func (b *RPCBackend) PinnedAffinities() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.affinity)
}

// MeasuredShipNS returns the EWMA of observed ship times in nanoseconds —
// each worker round trip minus the compute time the worker reported — and
// the number of samples behind it (0, 0 before any remote task ran).
// Compare against CostModel.RPCShipNS to see how far the calibrated
// loopback lower bound sits from this deployment's reality.
func (b *RPCBackend) MeasuredShipNS() (float64, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shipEWMA, b.shipCount
}

// ValueBytes returns the raw and coded sizes of every XOR value block the
// backend's calls shipped, in both directions.
func (b *RPCBackend) ValueBytes() (raw, coded int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.valRaw, b.valCoded
}

// observe folds one call's measured ship time and value bytes in.
func (b *RPCBackend) observe(shipNS float64, raw, coded int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.shipCount == 0 {
		b.shipEWMA = shipNS
	} else {
		b.shipEWMA += shipAlpha * (shipNS - b.shipEWMA)
	}
	b.shipCount++
	b.valRaw += raw
	b.valCoded += coded
}

// RunTask implements Backend: tasks with a remote descriptor ship to a
// worker; the rest run in-process. The shipped task's wall-clock time
// (encode + round trip + absorb) is accounted to the descriptor's phase
// key, so breakdowns keep their meaning.
func (b *RPCBackend) RunTask(ctx *Context, t *Task) (Value, error) {
	rt := t.Remote
	if rt == nil {
		return t.Run()
	}
	var span *obs.Span // nil on untraced runs; annotated in place when present
	var tracer *obs.Tracer
	if ctx != nil {
		span, tracer = ctx.Span, ctx.Tracer
	}
	call := func() (Value, error) {
		i, pinned := b.pick(rt.Affinity, rt.Scope)
		w := b.workers[i]
		if span != nil {
			span.Worker = w.label
			span.Codec = "flat"
			if pinned {
				tracer.Emit("wire", "affinity-hit", rt.Affinity, int64(i))
			}
		}
		ship := func(args func([]byte) []byte) (Value, error) {
			rep, sent, recv, rtt, err := w.call(rt.Op, args)
			if err != nil {
				return nil, fmt.Errorf("workflow: rpc backend: worker %s: task %s: %w", w.label, rt.Op, err)
			}
			if rep.Status == statusErr {
				return nil, fmt.Errorf("workflow: rpc backend: worker %s: task %s: %s", w.label, rt.Op, rep.Body)
			}
			r := flatwire.NewReader(rep.Body)
			out, err := rt.Absorb(r)
			// Every value block of this call, counted once: the arguments by
			// the worker's reader, the reply by this one.
			raw, coded := r.ValueBytes()
			raw += rep.ValueRaw
			coded += rep.ValueCoded
			b.observe(float64(max(rtt-time.Duration(rep.ComputeNS), 0)), raw, coded)
			if span != nil {
				span.BytesOut += int64(sent)
				span.BytesIn += int64(recv)
				span.ValueRawBytes += raw
				span.ValueCodedBytes += coded
			}
			return out, err
		}
		out, err := ship(func(buf []byte) []byte { return rt.Args(buf, i) })
		var nr *needResend
		if errors.As(err, &nr) {
			// Cache miss: the worker lacks a body the first send replaced
			// with its key. Re-send the inlined form to the SAME worker —
			// any other would miss again — and absorb the second reply. A
			// second miss is a protocol violation, surfaced as an error.
			if span != nil {
				span.Resend = true
				tracer.Emit("wire", "cache-miss-resend", rt.Op, int64(i))
			}
			if out, err = ship(nr.Args); errors.As(err, &nr) {
				return nil, fmt.Errorf("workflow: rpc backend: worker %s: task %s: cache miss after inlined resend", w.label, rt.Op)
			}
		}
		return out, err
	}
	if rt.Phase == "" || ctx == nil || ctx.Breakdown == nil {
		return call()
	}
	var out Value
	err := ctx.Breakdown.TimeSpanErr(rt.Phase, func() error {
		var cerr error
		out, cerr = call()
		return cerr
	})
	return out, err
}
