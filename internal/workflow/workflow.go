// Package workflow implements the paper's workflow optimizations on top of
// a typed DAG plan engine with partitioned streaming execution. Operators
// either communicate through files on disk (the "discrete" execution of
// Figure 3, with the intermediate TF/IDF scores materialized as ARFF) or
// are fused into a single image passing data in memory (the "merged"
// execution) — and datasets can flow through the plan as document
// partitions (shards) instead of monoliths, so per-document work stays
// embarrassingly parallel and the only serial points are reductions and
// output, the structure the paper's analysis assumes.
//
// A workflow is a Plan: a DAG of named nodes, each wrapping an Operator
// with declared input/output port types (TypedOperator). Three layers sit
// on top of the graph:
//
//   - validation: Plan.Validate type-checks every edge and rejects cycles
//     and dangling ports before anything runs; partitioned producers
//     present their per-shard payload type to shard consumers and
//     *Partitions to everything else, so shards cannot leak into an
//     operator expecting the whole dataset;
//   - rewriting: Rewriter rules transform a validated plan — FuseRule
//     cancels materialize/load edges anywhere in the graph,
//     SharedScanRule deduplicates identical source scans, and
//     PartitionRule expands fusable operators (TFIDFOp, WordCountOp) into
//     per-shard map kernels around explicit reduce nodes, inserting a
//     PartitionOp that carves the corpus scan into contiguous shards
//     (count-balanced, or byte-balanced under WeightedPartitionRule), and
//     expands KMeansOp into the iterative loop stages kmeans.assign and
//     kmeans.reduce;
//   - execution: Plan.Run schedules partition tasks — (node, shard)
//     pairs, not whole nodes — on the context's pool with a helping join.
//     A shard moves to the next map stage the moment its own data is
//     ready, so one shard can be several stages ahead of another;
//     reductions either gather all shards (DFReduceOp's parallel
//     tree-merge of document frequencies) or absorb shards in completion
//     order (GatherOp streaming vector shards into the final result);
//     iterative operators (IterativeOp — KMAssignOp hosts K-Means on this
//     contract) re-dispatch the same shard task set every iteration with
//     one reduction-barrier task per iteration that merges the shard
//     partials in shard-index order, so the loop's numeric reduce is
//     deterministic no matter how shards were scheduled. Per-shard phase
//     timings union into wall-clock spans under the same Breakdown keys
//     as monolithic runs, merged in deterministic topological order.
//
// The partitioned TF/IDF→K-Means dataflow (TFKMConfig.Shards != 0) is
// shard-granular end-to-end, including the iterative phase:
//
//	scan -> partition -[xN]-> tf-map =[xN]=> df-reduce
//	                          tf-map -[xN]-> transform -[xN]-> gather
//	                          transform =[xN]=> km-assign ~[xS]~> km-reduce -> output
//
// The transform's vector shards (precomputed norms, shard-aligned) feed
// the assignment loop directly; the gather's assembled result joins at the
// reduce for document names and retained scores. The loop's shard count S
// is independent of the map shard count N — the plan optimizer prices and
// retunes it separately (its cost is iteration-count dependent).
//
// Partitioning never changes results: shard boundaries are a pure function
// of corpus size and shard count, document frequencies merge
// commutatively, term IDs are assigned in lexicographic order, shards
// are always identified by partition index rather than completion order,
// and the K-Means per-iteration reduce merges shard accumulators in shard
// order — scores and cluster assignments are bit-identical to the
// unpartitioned plan at any shard count (asserted by the determinism
// tests, for every dictionary kind and both empty-cluster policies).
//
// # Execution backends
//
// Where the executor's (node, shard) tasks physically run is pluggable
// (Backend, Context.Backend): LocalBackend — the default — executes every
// task in-process on the pool, and RPCBackend ships tasks that have a
// serializable descriptor to worker processes over the task wire —
// length-prefixed frames of flat arguments and replies on one stream
// connection per worker (a worker is this engine's kernel registry served
// by ServeWorker; see cmd/hpa-workflow -worker). The scheduler never moves: dependency
// tracking, shard ordering and every reduction stay on the coordinator,
// and remote kernels run the same shard functions the local path runs
// (tfidf.CountShard, tfidf.TransformShard, kmeans.AssignRange), so
// results are bit-identical across backends at any shard count.
//
// Remotable tasks are the TF/IDF count and transform shards — their
// corpus shards travel as pario.SourceSpec path descriptors, their
// dictionaries as flattened (word, count) wire forms — and the K-Means
// assignment loop's per-iteration shard tasks, whose documents ship once
// into a worker-side session (pinned to one worker by backend affinity)
// and whose per-iteration traffic is assignments out, kmeans.Accum wire
// forms and assignments back; the iteration's centroids travel once per
// worker, as sparse rows decoded into one table all of the loop's shards
// on that worker share. When the loop ends — or its plan run ends in an
// error — the coordinator releases the loop's keys and the workers free
// its sessions and tables. K-Means++ seeding scan rounds ship as
// prepare-wave tasks through the same pinned sessions (documents ship
// once for seeding and iterations combined); the per-round seed draw
// stays on the coordinator. Splits, the DF tree-merge, the streaming
// gather, the per-iteration barrier and output always run on the
// coordinator; tasks whose inputs cannot be described (in-memory
// sources, disk-simulated sources, stopword-bearing options) quietly
// fall back to the local path.
//
// # Pruning and the wire
//
// Two hot-path optimizations ride the remotable tasks (kernels.go):
//
//   - The K-Means assignment tasks run a bounded kernel (Hamerly's
//     single bound or Elkan's per-centroid bounds, per Options.Prune) when
//     pruning is active — bounds live in the worker-side loop session next
//     to the shipped documents, drift rides the per-iteration task args,
//     and results stay bit-identical to the unpruned kernel (see the
//     kmeans package doc); the optimizer prices each bounded kernel
//     separately (CostModel.KMeansAssignPrunedNS / KMeansAssignElkanNS)
//     and under PruneAuto pins whichever variant is cheaper.
//   - Task payloads avoid redundant and slow serialization. The global
//     term table is content-addressed: transform args carry only its hash,
//     workers cache table bodies (keyed by hash and dictionary kind, with
//     a lazy TTL), and a cache miss answers with a need-resend flag that
//     makes the coordinator re-ship inline exactly once per (worker, hash)
//     — steady-state iterations ship no table at all. A shard's term
//     counts never leave the worker that counted them: count tasks park
//     their output in the worker session under a per-run scope
//     (count→transform affinity), the paired transform task names the
//     session, and the scope's pins are released when the run ends. And
//     every payload — kernel arguments, tfidf.VectorShard,
//     kmeans.AccumWire, assignment replies — travels as a flat buffer
//     (internal/flatwire) inside a length-prefixed frame (frame.go), ~8x
//     faster to encode+decode than gob with orders of magnitude fewer
//     allocations (BENCH_pruned.json).
//
// Fusion is a graph rewrite: a plan containing an explicit materialize/load
// operator pair around an edge is rewritten by FuseRule into one without
// them. Running the original plan and the fused plan therefore measures
// exactly the cost the paper attributes to intermediate I/O — the operators
// on either side are the same code.
//
// The linear Pipeline of earlier versions survives as a thin adapter that
// compiles to a single-chain Plan, so existing callers keep working
// unchanged.
package workflow

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"hpa/internal/metrics"
	"hpa/internal/obs"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/simsched"
)

// Value is a dataset flowing along a plan edge. Concrete types used by the
// built-in operators: pario.Source (documents), *tfidf.Result, *Matrix
// (term-document score matrix), *ARFFRef (a materialized matrix on disk),
// *WordCounts and *Clustering.
type Value any

// Context carries the execution environment through a plan run.
type Context struct {
	// Pool supplies intra-node parallelism to every operator and schedules
	// independent plan branches.
	Pool *par.Pool
	// Disk models the storage device for inputs and intermediates; nil
	// means unthrottled.
	Disk *pario.DiskSim
	// Breakdown accumulates per-phase wall-clock time (Figure 3/4's
	// stacked bars). Never nil after NewContext.
	Breakdown *metrics.Breakdown
	// Recorder optionally collects a simsched trace of the whole workflow.
	Recorder *simsched.Recorder
	// ScratchDir hosts intermediate files of discrete workflows.
	ScratchDir string
	// Observe, when non-nil, is called after each operator with its output
	// dataset — used for progress reporting and for capturing intermediate
	// measurements (e.g. dictionary footprints) without altering the plan.
	// Plan.Run serializes the calls on the scheduling goroutine.
	Observe func(op Operator, out Value)
	// Ctx, when non-nil, cancels the run cooperatively: nodes not yet
	// started are abandoned once the context is done, and
	// cancellation-aware operators (TF/IDF input) abort mid-phase.
	// Cancellation does not propagate into tasks already shipped to remote
	// workers; the run stops once their in-flight replies drain.
	Ctx context.Context
	// Backend selects where shard tasks execute: nil (or LocalBackend)
	// runs everything in-process on Pool; an RPCBackend ships serializable
	// shard tasks to worker processes. Results are bit-identical across
	// backends — scheduling, reductions and all merge ordering stay on the
	// coordinator.
	Backend Backend
	// Tracer, when non-nil, collects one obs.Span per scheduled task plus
	// wire and loop events (see internal/obs). A nil tracer is free: every
	// recording site is a single nil compare.
	Tracer *obs.Tracer
	// Span is the in-flight span of the task this context was minted for;
	// backends and kernels annotate it (worker lane, wire bytes, codec).
	// Nil outside task execution and on untraced runs.
	Span *obs.Span
}

// NewContext returns a context with an empty breakdown.
func NewContext(pool *par.Pool) *Context {
	return &Context{Pool: pool, Breakdown: metrics.NewBreakdown()}
}

// Operator is one workflow stage.
type Operator interface {
	// Name identifies the operator in errors and plans.
	Name() string
	// Run transforms the input dataset into the output dataset.
	Run(ctx *Context, in Value) (Value, error)
}

// Pipeline is a linear operator chain — the original workflow API, kept as
// a thin adapter that compiles to a single-chain Plan.
type Pipeline struct {
	Ops []Operator
}

// NewPipeline builds a pipeline from operators in execution order.
func NewPipeline(ops ...Operator) *Pipeline { return &Pipeline{Ops: ops} }

// ToPlan compiles the pipeline to an equivalent single-chain Plan. Node
// names are the operator names, suffixed #2, #3, ... on collision.
func (p *Pipeline) ToPlan() *Plan {
	plan, _ := p.compile()
	return plan
}

// compile builds the chain plan and returns it with the node names in
// chain order.
func (p *Pipeline) compile() (*Plan, []string) {
	plan := NewPlan()
	names := make([]string, 0, len(p.Ops))
	used := make(map[string]int, len(p.Ops))
	for _, op := range p.Ops {
		name := op.Name()
		used[name]++
		if n := used[name]; n > 1 {
			name = fmt.Sprintf("%s#%d", name, n)
		}
		plan.Add(name, op)
		names = append(names, name)
	}
	for i := 1; i < len(names); i++ {
		plan.Connect(names[i-1], names[i])
	}
	return plan, names
}

// Run threads the input through every operator by compiling the chain to a
// Plan (with a synthetic node feeding in) and executing it. Validation runs
// first, so type mismatches between stages are reported before any operator
// does work.
func (p *Pipeline) Run(ctx *Context, in Value) (Value, error) {
	if ctx.Breakdown == nil {
		ctx.Breakdown = metrics.NewBreakdown()
	}
	if len(p.Ops) == 0 {
		return in, nil
	}
	plan, names := p.compile()
	const inputNode = "#input"
	plan.Add(inputNode, &literalOp{v: in})
	plan.Connect(inputNode, names[0])
	outs, err := plan.Run(ctx)
	if err != nil {
		return nil, err
	}
	return outs[names[len(names)-1]], nil
}

// String renders the plan, marking materialization and partition
// boundaries: an adjacent materialize/load pair — the boundary Fuse
// cancels — is collapsed into a =[arff]=> arrow between its neighbors, so
// the discrete TF/IDF→K-Means chain renders as "tfidf =[arff]=> kmeans ->
// output" while the fused chain is "tfidf -> kmeans -> output". Downstream
// of a Splitter, edges into per-shard kernels render -[xN]-> and the edge
// gathering the shards back renders =[xN]=>, mirroring Plan.Explain:
// "partition -[x4]-> tf-map =[x4]=> reduce".
func (p *Pipeline) String() string {
	var sb strings.Builder
	arrow := " -> "
	nparts := 0 // shard count while inside a partitioned section
	printed := false
	i := 0
	for i < len(p.Ops) {
		if i+1 < len(p.Ops) {
			_, isM := p.Ops[i].(materializer)
			_, isL := p.Ops[i+1].(loader)
			if isM && isL {
				arrow = " =[arff]=> "
				i += 2
				continue
			}
		}
		if printed {
			sb.WriteString(arrow)
		}
		sb.WriteString(p.Ops[i].Name())
		printed = true
		arrow = " -> "
		if s, ok := p.Ops[i].(Splitter); ok {
			nparts = s.PartitionCount()
		}
		if nparts > 0 && i+1 < len(p.Ops) {
			if _, kernel := p.Ops[i+1].(PartitionKernel); kernel {
				arrow = fmt.Sprintf(" -[x%d]-> ", nparts)
			} else {
				arrow = fmt.Sprintf(" =[x%d]=> ", nparts)
				nparts = 0
			}
		}
		i++
	}
	return sb.String()
}

// materializer is implemented by operators that write their input to disk
// for a later loader; loader by operators that read it back. FuseRule
// cancels materialize -> load edges.
type materializer interface{ isMaterializer() }
type loader interface{ isLoader() }

// Fuse returns a copy of the pipeline with every materialize/load pair
// removed — the paper's fusion of discrete operators into "single binaries
// that encapsulate a complex workflow". It compiles the chain to a Plan,
// applies FuseRule and linearizes the result; the input pipeline is
// unchanged.
func Fuse(p *Pipeline) *Pipeline {
	plan := p.ToPlan().Apply(FuseRule())
	order, err := plan.topoOrder()
	if err != nil {
		// A pipeline chain cannot cycle; defensive fallback.
		return NewPipeline(p.Ops...)
	}
	out := &Pipeline{}
	for _, n := range order {
		out.Ops = append(out.Ops, n.op)
	}
	return out
}

// ErrType reports a dataset type mismatch between workflow stages, whether
// detected by Plan.Validate at build time or by an operator at run time.
var ErrType = errors.New("workflow: dataset type mismatch")
