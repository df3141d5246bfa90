package workflow

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpa/internal/flatwire"
	"hpa/internal/kmeans"
	"hpa/internal/par"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
)

// failingAssign is an RPC backend wrapper that fails one kmeans.assign
// task — the failAt-th it sees — as a worker crash mid-loop would. It
// embeds *RPCBackend, so the executor reaches the embedded release hooks
// exactly as it does for any wrapper.
type failingAssign struct {
	*RPCBackend
	failAt  int64
	assigns atomic.Int64
}

var errInjected = errors.New("injected mid-loop failure")

// RunTask implements Backend.
func (b *failingAssign) RunTask(ctx *Context, t *Task) (Value, error) {
	if t.Remote != nil && t.Remote.Op == "kmeans.assign" && b.assigns.Add(1) == b.failAt {
		return nil, errInjected
	}
	return b.RPCBackend.RunTask(ctx, t)
}

// TestLoopStateReleasedAcrossRuns is the leak test: repeated runs on one
// resident backend, one of them failing mid-loop, must leave the workers
// holding no loop sessions and no centroid tables, and the backend no
// affinity pins — loop ends and plan-run scopes both release.
func TestLoopStateReleasedAcrossRuns(t *testing.T) {
	src := diskCorpus(t)
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b := &failingAssign{RPCBackend: pipeBackend(t, 2)}
			pool := par.NewPool(procs)
			defer pool.Close()
			run := func() error {
				ctx := NewContext(pool)
				ctx.ScratchDir = t.TempDir()
				ctx.Backend = b
				_, err := RunTFKM(src, ctx, TFKMConfig{
					Mode:   Merged,
					Shards: 4,
					TFIDF:  tfidf.Options{Normalize: true},
					KMeans: kmeans.Options{K: 8, Seed: 1},
				})
				return err
			}
			for i := 0; i < 4; i++ {
				b.assigns.Store(0)
				b.failAt = 0
				if i == 2 {
					b.failAt = 6 // the second iteration, with every session live
				}
				err := run()
				if i == 2 {
					if !errors.Is(err, errInjected) {
						t.Fatalf("run %d: want the injected failure, got %v", i, err)
					}
				} else if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if sessions, tables := workerLoopState(); sessions != 0 || tables != 0 {
					t.Errorf("run %d left %d loop sessions and %d centroid tables on the workers", i, sessions, tables)
				}
				if n := b.PinnedAffinities(); n != 0 {
					t.Errorf("run %d left %d affinity pins", i, n)
				}
			}
		})
	}
}

// TestMeasuredShipExcludesCompute: the measured ship time is the round
// trip minus the compute time the worker reports, so a kernel that
// computes for 20 ms ships in far less.
func TestMeasuredShipExcludesCompute(t *testing.T) {
	const compute = 20 * time.Millisecond
	registerSleepKernel.Do(func() {
		RegisterKernel("test.sleep", func(*flatwire.Reader) ([]byte, error) {
			time.Sleep(compute)
			return nil, nil
		})
	})
	b := pipeBackend(t, 1)
	task := &Task{Remote: &RemoteTask{
		Op:     "test.sleep",
		Args:   func(buf []byte, _ int) []byte { return buf },
		Absorb: func(*flatwire.Reader) (Value, error) { return nil, nil },
	}}
	const calls = 3
	start := time.Now()
	for i := 0; i < calls; i++ {
		if _, err := b.RunTask(nil, task); err != nil {
			t.Fatal(err)
		}
	}
	if wall := time.Since(start); wall < calls*compute {
		t.Fatalf("%d calls took %v: the kernel did not run", calls, wall)
	}
	ns, samples := b.MeasuredShipNS()
	if samples != calls {
		t.Fatalf("%d ship samples, want %d", samples, calls)
	}
	if ship := time.Duration(ns); ship >= compute/4 {
		t.Errorf("measured ship %v includes worker compute (kernel ran %v)", ship, compute)
	}
}

var registerSleepKernel sync.Once

// TestKMAssignCentroidTableProtocol drives the worker-side centroid table
// deterministically: a task naming a table the worker lacks misses, a task
// carrying it installs it once for every shard of the loop, a stale
// iteration misses again, and the release frees the sessions and the
// table together.
func TestKMAssignCentroidTableProtocol(t *testing.T) {
	const loop = "km-test-protocol"
	docs := []sparse.Vector{
		{Idx: []uint32{0, 2}, Val: []float64{1, 2}},
		{Idx: []uint32{1}, Val: []float64{3}},
	}
	init := func(lo, hi int) *KMShardInit {
		norms := make([]float64, hi-lo)
		for i := range norms {
			norms[i] = sparse.Dot(&docs[lo+i], &docs[lo+i])
		}
		return &KMShardInit{Vectors: docs[lo:hi], Norms: norms, Dim: 3, K: 2}
	}
	cents := [][]float64{{1, 0, 2}, {0, 3, 0}}
	rows := sparseRows(cents, []float64{5, 9}, 3)
	call := func(a *KMAssignTaskArgs) (*KMAssignReply, uint32) {
		t.Helper()
		body, err := runKMAssignKernel(flatwire.NewReader(a.AppendFlat(nil)))
		if err != nil {
			t.Fatalf("kernel: %v", err)
		}
		rep, miss, err := consumeKMAssignReply(flatwire.NewReader(body))
		if err != nil {
			t.Fatalf("reply: %v", err)
		}
		return rep, miss
	}

	// 1. First contact, table by reference: the session is created, the
	// table is missing.
	if _, miss := call(&KMAssignTaskArgs{Loop: loop, Shard: 0, Init: init(0, 1), Assign: []int32{0}}); miss != needCentroidsFlag {
		t.Fatalf("by-reference task on a cold worker: miss %#x", miss)
	}
	// 2. The inline resend installs the table and computes.
	rep, miss := call(&KMAssignTaskArgs{Loop: loop, Shard: 0, Centroids: rows, Assign: []int32{-1}})
	if miss != 0 || rep.Assign[0] != 0 {
		t.Fatalf("inline task: miss %#x, reply %+v", miss, rep)
	}
	// 3. Another shard of the loop uses the installed table by reference.
	rep, miss = call(&KMAssignTaskArgs{Loop: loop, Shard: 1, Init: init(1, 2), Assign: []int32{-1}})
	if miss != 0 || rep.Assign[0] != 1 {
		t.Fatalf("second shard by reference: miss %#x, reply %+v", miss, rep)
	}
	if sessions, tables := workerLoopState(); sessions != 2 || tables != 1 {
		t.Fatalf("worker holds %d sessions and %d tables, want 2 sessions sharing 1 table", sessions, tables)
	}
	// 4. The next iteration's table has not arrived: a miss, not a stale
	// answer.
	if _, miss := call(&KMAssignTaskArgs{Loop: loop, Shard: 1, Iter: 1, Assign: []int32{1}}); miss != needCentroidsFlag {
		t.Fatalf("stale table served for iteration 1: miss %#x", miss)
	}
	// 5. Releasing both sessions frees the table with them.
	if _, err := runReleaseKernel(flatwire.NewReader(appendReleaseArgs(nil, []string{sessionKey(loop, 0), sessionKey(loop, 1)}))); err != nil {
		t.Fatal(err)
	}
	if sessions, tables := workerLoopState(); sessions != 0 || tables != 0 {
		t.Fatalf("release left %d sessions and %d tables", sessions, tables)
	}
}

// TestKMAssignWaitsForAdmittedTable: once the connection's reader admitted
// a task carrying an iteration's table, a later task of the same iteration
// waits for the install instead of missing — even when its handler runs
// first.
func TestKMAssignWaitsForAdmittedTable(t *testing.T) {
	const loop = "km-test-admit"
	docs := []sparse.Vector{{Idx: []uint32{0}, Val: []float64{1}}, {Idx: []uint32{1}, Val: []float64{2}}}
	init := func(i int) *KMShardInit {
		return &KMShardInit{Vectors: docs[i : i+1], Norms: []float64{sparse.Dot(&docs[i], &docs[i])}, Dim: 2, K: 2}
	}
	withTable := (&KMAssignTaskArgs{Loop: loop, Shard: 0, Init: init(0), Assign: []int32{-1},
		Centroids: sparseRows([][]float64{{1, 0}, {0, 2}}, []float64{1, 4}, 2)}).AppendFlat(nil)
	byRef := (&KMAssignTaskArgs{Loop: loop, Shard: 1, Init: init(1), Assign: []int32{-1}}).AppendFlat(nil)
	defer runReleaseKernel(flatwire.NewReader(appendReleaseArgs(nil, []string{sessionKey(loop, 0), sessionKey(loop, 1)})))

	admitKMAssign(withTable) // the reader admits both frames in order
	done := make(chan uint32, 1)
	go func() {
		body, err := runKMAssignKernel(flatwire.NewReader(byRef))
		if err != nil {
			t.Error(err)
		}
		_, miss, err := consumeKMAssignReply(flatwire.NewReader(body))
		if err != nil {
			t.Error(err)
		}
		done <- miss
	}()
	select {
	case miss := <-done:
		t.Fatalf("by-reference task answered (miss %#x) before the admitted table was installed", miss)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := runKMAssignKernel(flatwire.NewReader(withTable)); err != nil {
		t.Fatal(err)
	}
	if miss := <-done; miss != 0 {
		t.Fatalf("by-reference task missed the admitted table: %#x", miss)
	}
}
