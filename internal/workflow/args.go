package workflow

import (
	"fmt"
	"math"
	"strconv"

	"hpa/internal/flatwire"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
)

// This file holds the flat argument codecs of the built-in kernels. Every
// argument body starts with its own magic and flatwire.Version, and every
// decoder is canonical: it validates the layout (counts, markers, flag
// bits, index order, truncation, trailing bytes), returns an error on
// anything malformed and never panics, and accepts exactly the bytes the
// encoder writes — so an accepted body re-encodes to the same bytes, the
// property the fuzz targets in args_fuzz_test.go check. Floats travel as
// IEEE 754 bit patterns (value blocks XOR-coded, flatwire.AppendF64sXor),
// so the worker computes on the coordinator's exact bits.

const (
	countArgsMagic     uint32 = 0x48504341 // "HPCA"
	transformArgsMagic uint32 = 0x48505441 // "HPTA"
	kmAssignArgsMagic  uint32 = 0x48504b51 // "HPKQ"
	kmSeedArgsMagic    uint32 = 0x48505351 // "HPSQ"
	releaseArgsMagic   uint32 = 0x4850524c // "HPRL"
	centroidRowsMagic  uint32 = 0x48504352 // "HPCR"
)

// malformed wraps a decode failure of the named argument body.
func malformed(what string, err error) error {
	return fmt.Errorf("workflow: decode %s: %w", what, err)
}

// appendSourceSpec appends a shard descriptor: lo u64 | hi u64 |
// nPaths u32 | paths (u32 len + bytes) × nPaths.
func appendSourceSpec(b []byte, s *pario.SourceSpec) []byte {
	b = flatwire.AppendU64(b, uint64(s.Lo))
	b = flatwire.AppendU64(b, uint64(s.Hi))
	b = flatwire.AppendU32(b, uint32(len(s.Paths)))
	for _, p := range s.Paths {
		b = flatwire.AppendString(b, p)
	}
	return b
}

// consumeSourceSpec decodes a shard descriptor; its path count must match
// its document range.
func consumeSourceSpec(r *flatwire.Reader) pario.SourceSpec {
	lo, hi := r.U64(), r.U64()
	n := r.Count(4)
	s := pario.SourceSpec{Lo: int(lo), Hi: int(hi)}
	if n > 0 {
		s.Paths = make([]string, n)
		for i := range s.Paths {
			s.Paths[i] = r.String()
		}
	}
	if r.Err() == nil && (lo > hi || hi-lo != uint64(n)) {
		r.Fail("shard range [%d, %d) for %d paths", lo, hi, n)
	}
	return s
}

// CountTaskArgs are the tfidf.count kernel arguments.
type CountTaskArgs struct {
	// Shard describes the corpus shard (paths + global [Lo, Hi) range).
	Shard pario.SourceSpec
	// Session, when non-empty, makes the worker keep the live ShardCounts
	// cached under this key after replying, so the matching transform task
	// (routed here by the shared affinity key) can consume them without the
	// coordinator re-serializing every document's term counts.
	Session string
	// Opts is the serializable option subset of the TF/IDF operator.
	Opts tfidf.WireOptions
}

// AppendFlat appends the arguments: magic u32 | version u8 | shard |
// session string | options.
func (a *CountTaskArgs) AppendFlat(b []byte) []byte {
	b = flatwire.AppendHeader(b, countArgsMagic)
	b = appendSourceSpec(b, &a.Shard)
	b = flatwire.AppendString(b, a.Session)
	return a.Opts.AppendFlat(b)
}

// decodeCountTaskArgs decodes a whole tfidf.count argument body.
func decodeCountTaskArgs(r *flatwire.Reader) (*CountTaskArgs, error) {
	r.Header(countArgsMagic, "tfidf.count args")
	a := &CountTaskArgs{Shard: consumeSourceSpec(r), Session: r.String()}
	a.Opts = tfidf.ConsumeWireOptions(r)
	if err := r.Done(); err != nil {
		return nil, malformed("tfidf.count args", err)
	}
	return a, nil
}

// TransformTaskArgs are the tfidf.transform kernel arguments.
type TransformTaskArgs struct {
	// Counts is the shard's phase-1 output inlined (DF omitted — the global
	// merge consumed it). Nil when CountsSession names the worker's cached
	// live shard instead; a resend after a session miss inlines it.
	Counts *tfidf.WireShardCounts
	// CountsSession, when non-empty, keys the count kernel's cached
	// ShardCounts on the worker the shared affinity routed both tasks to.
	CountsSession string
	// GlobalFlat is the merged term table inlined, in flat wire form
	// (tfidf.WireGlobal.EncodeFlat). Nil on the optimistic first send —
	// GlobalHash alone identifies it — and populated only on the resend
	// answering a worker cache miss.
	GlobalFlat []byte
	// GlobalHash is the table's content digest (tfidf.Global.ContentHash),
	// the worker's cache key. Always set.
	GlobalHash uint64
	// Opts is the serializable option subset.
	Opts tfidf.WireOptions
}

// AppendFlat appends the arguments: magic u32 | version u8 | options |
// globalHash u64 | countsSession string | counts marker u8 [| counts] |
// global marker u8 [| global (u32 len + bytes)].
func (a *TransformTaskArgs) AppendFlat(b []byte) []byte {
	b = flatwire.AppendHeader(b, transformArgsMagic)
	b = a.Opts.AppendFlat(b)
	b = flatwire.AppendU64(b, a.GlobalHash)
	b = flatwire.AppendString(b, a.CountsSession)
	b = flatwire.AppendBool(b, a.Counts != nil)
	if a.Counts != nil {
		b = a.Counts.EncodeFlat(b)
	}
	b = flatwire.AppendBool(b, a.GlobalFlat != nil)
	if a.GlobalFlat != nil {
		b = flatwire.AppendBytes(b, a.GlobalFlat)
	}
	return b
}

// decodeTransformTaskArgs decodes a whole tfidf.transform argument body.
// The inlined global table stays encoded (a sub-slice of the body): the
// kernel decodes it only on a cache miss.
func decodeTransformTaskArgs(r *flatwire.Reader) (*TransformTaskArgs, error) {
	r.Header(transformArgsMagic, "tfidf.transform args")
	a := &TransformTaskArgs{Opts: tfidf.ConsumeWireOptions(r)}
	a.GlobalHash = r.U64()
	a.CountsSession = r.String()
	if r.Bool() {
		counts, err := tfidf.ConsumeFlatWireShardCounts(r)
		if err != nil {
			return nil, malformed("tfidf.transform args", err)
		}
		a.Counts = counts
	}
	if r.Bool() {
		a.GlobalFlat = r.Bytes()
	}
	if err := r.Done(); err != nil {
		return nil, malformed("tfidf.transform args", err)
	}
	return a, nil
}

// appendVector appends one sparse vector: nnz u32 | delta-varint indices |
// XOR value block.
func appendVector(b []byte, v *sparse.Vector) []byte {
	b = flatwire.AppendU32(b, uint32(len(v.Idx)))
	b = flatwire.AppendDeltaU32s(b, v.Idx)
	return flatwire.AppendF64sXor(b, v.Val)
}

// consumeVector decodes one sparse vector; its indices must be strictly
// ascending (the sparse.Vector invariant) and below dim.
func consumeVector(r *flatwire.Reader, dim uint64) sparse.Vector {
	n := r.Count(1)
	if n == 0 {
		r.F64sXor(0)
		return sparse.Vector{}
	}
	v := sparse.Vector{Idx: make([]uint32, n), Val: make([]float64, n)}
	r.DeltaU32sInto(v.Idx)
	checkIndices(r, v.Idx, dim)
	r.F64sXorInto(v.Val)
	return v
}

// checkIndices fails r unless idx is strictly ascending and below dim.
func checkIndices(r *flatwire.Reader, idx []uint32, dim uint64) {
	if r.Err() != nil {
		return
	}
	for e, x := range idx {
		if e > 0 && x <= idx[e-1] || uint64(x) >= dim {
			r.Fail("index %d at entry %d: not ascending below %d", x, e, dim)
			return
		}
	}
}

// KMShardInit carries a loop shard's per-loop constants, shipped once on
// the shard's first contact with its worker and kept in the worker
// session.
type KMShardInit struct {
	// Vectors and Norms are the shard's documents and their squared norms.
	Vectors []sparse.Vector
	Norms   []float64
	// Dim is the dense dimensionality, K the cluster count.
	Dim, K int
	// WantDists makes the worker track and return per-document distances
	// (the coordinator's ReseedFarthest policy needs them).
	WantDists bool
	// Prune makes the worker maintain a shard-local kmeans.BoundsPass, so
	// assignment pruning works identically whether the shard runs here or
	// on the coordinator. Bounds never ship: they are advisory state, and
	// a fresh session (all bounds −Inf) just scans fully, which is always
	// correct.
	Prune bool
	// Elkan selects the per-centroid lower-bound variant of the bounds pass
	// (kmeans.BoundsPass.EnableElkan). The worker must mirror the
	// coordinator's variant: the two variants skip different documents, and
	// a skip changes which float operations run.
	Elkan bool
}

// KMShardInit flag bits.
const (
	initWantDists = 1 << iota
	initPrune
	initElkan
)

// appendFlat appends the init: dim u64 | k u32 | flags u8 | nDocs u32 |
// vectors | norms XOR block.
func (in *KMShardInit) appendFlat(b []byte) []byte {
	b = flatwire.AppendU64(b, uint64(in.Dim))
	b = flatwire.AppendU32(b, uint32(in.K))
	var flags byte
	if in.WantDists {
		flags |= initWantDists
	}
	if in.Prune {
		flags |= initPrune
	}
	if in.Elkan {
		flags |= initElkan
	}
	b = append(b, flags)
	b = flatwire.AppendU32(b, uint32(len(in.Vectors)))
	for i := range in.Vectors {
		b = appendVector(b, &in.Vectors[i])
	}
	return flatwire.AppendF64sXor(b, in.Norms)
}

// consumeKMShardInit decodes an init; k must be positive and every
// document's indices below dim.
func consumeKMShardInit(r *flatwire.Reader) *KMShardInit {
	dim := r.U64()
	k := r.U32()
	flags := r.U8()
	n := r.Count(5) // a vector takes at least its count and a block marker
	if r.Err() != nil {
		return nil
	}
	if k == 0 || dim > math.MaxInt32 || flags&^(initWantDists|initPrune|initElkan) != 0 {
		r.Fail("shard init: k=%d dim=%d flags=%#x", k, dim, flags)
		return nil
	}
	in := &KMShardInit{
		Dim: int(dim), K: int(k),
		WantDists: flags&initWantDists != 0,
		Prune:     flags&initPrune != 0,
		Elkan:     flags&initElkan != 0,
	}
	if n > 0 {
		in.Vectors = make([]sparse.Vector, n)
		for i := range in.Vectors {
			if in.Vectors[i] = consumeVector(r, dim); r.Err() != nil {
				return nil
			}
		}
	}
	in.Norms = r.F64sXor(n)
	return in
}

// CentroidRows is one iteration's centroid table in sparse-row form, the
// way it travels to workers: each row keeps only the entries whose bit
// pattern is not +0 (a -0 entry ships, so the worker's dense table holds
// the coordinator's exact bits), plus the centroids' squared norms.
type CentroidRows struct {
	Dim   int
	Idx   [][]uint32
	Val   [][]float64
	Norms []float64
}

// sparseRows converts dense centroid rows to sparse-row form.
func sparseRows(cents [][]float64, norms []float64, dim int) *CentroidRows {
	rows := &CentroidRows{Dim: dim, Idx: make([][]uint32, len(cents)), Val: make([][]float64, len(cents)), Norms: norms}
	total := 0
	for _, c := range cents {
		for _, x := range c {
			if math.Float64bits(x) != 0 {
				total++
			}
		}
	}
	idx := make([]uint32, 0, total)
	val := make([]float64, 0, total)
	for j, c := range cents {
		lo := len(idx)
		for i, x := range c {
			if math.Float64bits(x) != 0 {
				idx = append(idx, uint32(i))
				val = append(val, x)
			}
		}
		rows.Idx[j], rows.Val[j] = idx[lo:len(idx):len(idx)], val[lo:len(val):len(val)]
	}
	return rows
}

// AppendFlat appends the rows: magic u32 | version u8 | k u32 | dim u64 |
// nnz u32 × k | delta-varint indices per row | XOR value block per row |
// norms XOR block.
func (c *CentroidRows) AppendFlat(b []byte) []byte {
	b = flatwire.AppendHeader(b, centroidRowsMagic)
	b = flatwire.AppendU32(b, uint32(len(c.Idx)))
	b = flatwire.AppendU64(b, uint64(c.Dim))
	for _, idx := range c.Idx {
		b = flatwire.AppendU32(b, uint32(len(idx)))
	}
	for _, idx := range c.Idx {
		b = flatwire.AppendDeltaU32s(b, idx)
	}
	for _, val := range c.Val {
		b = flatwire.AppendF64sXor(b, val)
	}
	return flatwire.AppendF64sXor(b, c.Norms)
}

// consumeCentroidRows decodes sparse centroid rows; indices must be
// strictly ascending below dim, and no entry may be +0 (the encoder never
// writes one).
func consumeCentroidRows(r *flatwire.Reader) *CentroidRows {
	r.Header(centroidRowsMagic, "centroid rows")
	k := r.Count(4)
	dim := r.U64()
	nnz := r.U32s(k)
	if r.Err() != nil {
		return nil
	}
	if dim > math.MaxInt32 {
		r.Fail("centroid rows: dim %d", dim)
		return nil
	}
	total := 0
	for _, n := range nnz {
		total += int(n)
	}
	if total > r.Remaining() { // every entry takes at least one index byte
		r.Fail("centroid rows: %d entries in %d bytes", total, r.Remaining())
		return nil
	}
	c := &CentroidRows{Dim: int(dim), Idx: make([][]uint32, k), Val: make([][]float64, k)}
	idx := make([]uint32, total)
	val := make([]float64, total)
	off := 0
	for j, n := range nnz {
		c.Idx[j] = idx[off : off+int(n) : off+int(n)]
		c.Val[j] = val[off : off+int(n) : off+int(n)]
		off += int(n)
		r.DeltaU32sInto(c.Idx[j])
		checkIndices(r, c.Idx[j], dim)
	}
	for j := range nnz {
		r.F64sXorInto(c.Val[j])
		for _, x := range c.Val[j] {
			if math.Float64bits(x) == 0 {
				r.Fail("centroid row %d carries a +0 entry", j)
				break
			}
		}
	}
	c.Norms = r.F64sXor(k)
	if r.Err() != nil {
		return nil
	}
	return c
}

// denseInto scatters the rows into dst (k rows of dim floats), leaving
// every unlisted entry +0.
func (c *CentroidRows) denseInto(dst [][]float64) {
	for j, row := range dst {
		clear(row)
		for e, i := range c.Idx[j] {
			row[i] = c.Val[j][e]
		}
	}
}

// sessionKey names one loop shard's worker-side session — also the
// shard's affinity key, and what the release request frees.
func sessionKey(loop string, shard int) string {
	return loop + "/" + strconv.Itoa(shard)
}

// kmeans.assign argument flag bits.
const (
	assignInit = 1 << iota
	assignCentroids
	assignDrift
)

// KMAssignTaskArgs are the kmeans.assign kernel arguments — one shard's
// assignment iteration.
type KMAssignTaskArgs struct {
	// Loop identifies the loop (process and loop sequence); Shard the loop
	// shard. Together they name the worker session (sessionKey).
	Loop  string
	Shard int
	// Iter is the iteration whose centroids the task assigns against: the
	// worker's table of (Loop, Iter).
	Iter int
	// Init is present on the shard's first contact with the worker only.
	Init *KMShardInit
	// Centroids is the iteration's centroid table, present on the first
	// task of the iteration each worker receives (and on a resend after a
	// miss); the worker installs it as the loop's shared table. Nil tasks
	// assign against the table already installed for (Loop, Iter).
	Centroids *CentroidRows
	// Assign holds the shard's previous assignments (shard-local indexing),
	// so the moved count stays exact whether or not the session survived.
	Assign []int32
	// Drift holds the padded per-centroid drifts of the previous centroid
	// update (kmeans.Clusterer.Drift) — what the session's bounds decay by
	// before this iteration's pruned assignment. Nil on the first iteration
	// and when pruning is off.
	Drift []float64
}

// AppendFlat appends the arguments (see appendKMAssignArgs).
func (a *KMAssignTaskArgs) AppendFlat(b []byte) []byte {
	var rows []byte
	if a.Centroids != nil {
		rows = a.Centroids.AppendFlat(nil)
	}
	return appendKMAssignArgs(b, a.Loop, a.Shard, a.Iter, a.Init, rows, a.Assign, a.Drift)
}

// appendKMAssignArgs appends kmeans.assign arguments with the centroid
// table already encoded (CentroidRows.AppendFlat; nil = by reference):
//
//	magic u32 | version u8 | loop string | shard u32 | iter u32 | flags u8
//	[init] [centroid rows] | nAssign u32 | assign i32 × n
//	[nDrift u32 | drift XOR block]
//
// The fixed prefix up to flags is what the worker's admit hook reads in
// frame order (admitKMAssign).
func appendKMAssignArgs(b []byte, loop string, shard, iter int, init *KMShardInit, rows []byte, assign []int32, drift []float64) []byte {
	b = flatwire.AppendHeader(b, kmAssignArgsMagic)
	b = flatwire.AppendString(b, loop)
	b = flatwire.AppendU32(b, uint32(shard))
	b = flatwire.AppendU32(b, uint32(iter))
	var flags byte
	if init != nil {
		flags |= assignInit
	}
	if rows != nil {
		flags |= assignCentroids
	}
	if drift != nil {
		flags |= assignDrift
	}
	b = append(b, flags)
	if init != nil {
		b = init.appendFlat(b)
	}
	b = append(b, rows...)
	b = flatwire.AppendU32(b, uint32(len(assign)))
	b = flatwire.AppendI32s(b, assign)
	if drift != nil {
		b = flatwire.AppendU32(b, uint32(len(drift)))
		b = flatwire.AppendF64sXor(b, drift)
	}
	return b
}

// consumeKMAssignHeader decodes the fixed prefix of kmeans.assign
// arguments: loop, shard, iteration and flag bits.
func consumeKMAssignHeader(r *flatwire.Reader) (a *KMAssignTaskArgs, flags byte) {
	r.Header(kmAssignArgsMagic, "kmeans.assign args")
	a = &KMAssignTaskArgs{Loop: r.String(), Shard: int(r.U32()), Iter: int(r.U32())}
	flags = r.U8()
	if r.Err() == nil && flags&^(assignInit|assignCentroids|assignDrift) != 0 {
		r.Fail("kmeans.assign args: flags %#x", flags)
	}
	return a, flags
}

// decodeKMAssignTaskArgs decodes a whole kmeans.assign argument body.
func decodeKMAssignTaskArgs(r *flatwire.Reader) (*KMAssignTaskArgs, error) {
	a, flags := consumeKMAssignHeader(r)
	return a, decodeKMAssignRest(r, a, flags)
}

// decodeKMAssignRest decodes the arguments after the fixed prefix.
func decodeKMAssignRest(r *flatwire.Reader, a *KMAssignTaskArgs, flags byte) error {
	if flags&assignInit != 0 && r.Err() == nil {
		a.Init = consumeKMShardInit(r)
	}
	if flags&assignCentroids != 0 && r.Err() == nil {
		a.Centroids = consumeCentroidRows(r)
	}
	a.Assign = r.I32s(r.Count(4))
	if flags&assignDrift != 0 {
		// Non-nil even when empty: the flag, not the length, marks a drift.
		a.Drift = append([]float64{}, r.F64sXor(r.Count(1))...)
	}
	if err := r.Done(); err != nil {
		return malformed("kmeans.assign args", err)
	}
	return nil
}

// KMSeedTaskArgs are the kmeans.seed kernel arguments — one seed round's
// min-distance scan over one loop shard.
type KMSeedTaskArgs struct {
	// Loop and Shard name the shard's worker session — the same one the
	// assignment iterations use, so documents ship once for both.
	Loop  string
	Shard int
	// Init is present on the shard's first contact with the worker only
	// (usually the first seed round; the assignment tasks then find the
	// session warm).
	Init *KMShardInit
	// Last is the most recently chosen seed document.
	Last sparse.Vector
	// D2 is the shard's current window of the running min-distance array.
	D2 []float64
}

// AppendFlat appends the arguments: magic u32 | version u8 | loop string |
// shard u32 | init marker u8 [| init] | last vector | nD2 u32 | d2 XOR
// block.
func (a *KMSeedTaskArgs) AppendFlat(b []byte) []byte {
	b = flatwire.AppendHeader(b, kmSeedArgsMagic)
	b = flatwire.AppendString(b, a.Loop)
	b = flatwire.AppendU32(b, uint32(a.Shard))
	b = flatwire.AppendBool(b, a.Init != nil)
	if a.Init != nil {
		b = a.Init.appendFlat(b)
	}
	b = appendVector(b, &a.Last)
	b = flatwire.AppendU32(b, uint32(len(a.D2)))
	return flatwire.AppendF64sXor(b, a.D2)
}

// decodeKMSeedTaskArgs decodes a whole kmeans.seed argument body.
func decodeKMSeedTaskArgs(r *flatwire.Reader) (*KMSeedTaskArgs, error) {
	r.Header(kmSeedArgsMagic, "kmeans.seed args")
	a := &KMSeedTaskArgs{Loop: r.String(), Shard: int(r.U32())}
	if r.Bool() {
		a.Init = consumeKMShardInit(r)
	}
	a.Last = consumeVector(r, math.MaxUint32+1)
	a.D2 = r.F64sXor(r.Count(1))
	if err := r.Done(); err != nil {
		return nil, malformed("kmeans.seed args", err)
	}
	return a, nil
}

// appendReleaseArgs appends a release request's keys: magic u32 |
// version u8 | n u32 | keys (u32 len + bytes) × n.
func appendReleaseArgs(b []byte, keys []string) []byte {
	b = flatwire.AppendHeader(b, releaseArgsMagic)
	b = flatwire.AppendU32(b, uint32(len(keys)))
	for _, k := range keys {
		b = flatwire.AppendString(b, k)
	}
	return b
}

// decodeReleaseArgs decodes a release request's keys.
func decodeReleaseArgs(r *flatwire.Reader) ([]string, error) {
	r.Header(releaseArgsMagic, "release args")
	keys := make([]string, r.Count(4))
	for i := range keys {
		keys[i] = r.String()
	}
	if err := r.Done(); err != nil {
		return nil, malformed("release args", err)
	}
	return keys, nil
}
