package tfidf

import (
	"fmt"

	"hpa/internal/dict"
	"hpa/internal/flatwire"
	"hpa/internal/sparse"
)

// This file is the flat wire codec of VectorShard — the hottest
// worker→coordinator payload of the partitioned TF/IDF transform. The gob
// path walks the shard reflectively and allocates per vector; the flat
// layout below writes one exactly-sized buffer and decodes into two shared
// backing arrays (all Idx entries contiguous, all Val entries contiguous),
// so a shard's score vectors cost a handful of allocations no matter how
// many documents it carries. Floats travel as their IEEE 754 bit patterns:
// the decoded shard is bit-identical to the encoded one.
//
// Layout (little-endian):
//
//	magic u32 | version u8 | lo u64 | hi u64 | dim u64 | dictFootprint i64
//	nDocs u32 | totalNNZ u64
//	nnz   u32 × nDocs      (per-document entry counts)
//	idx   delta varints    (each vector's ascending indices, per document)
//	val   xor blocks       (each vector's values, one block per document)
//	norms xor block        (nDocs values)
//	names (u32 len + bytes) × nDocs
//
// Each vector's indices are delta-coded as varints (the chain restarts per
// document) and each value block is XOR-compressed
// (flatwire.AppendF64sXor), so documents stay independently decodable.

// vectorShardMagic identifies a flat VectorShard buffer.
const vectorShardMagic uint32 = 0x48505653 // "HPVS"

// wireShardCountsMagic identifies a flat WireShardCounts buffer — the
// tfidf.count kernel reply.
const wireShardCountsMagic uint32 = 0x48505743 // "HPWC"

// wireGlobalMagic identifies a flat WireGlobal buffer — the global
// term-table body shipped to workers on a cache miss.
const wireGlobalMagic uint32 = 0x48505747 // "HPWG"

// EncodeFlat returns the shard in flat wire form, appended to dst (pass nil
// to allocate exactly). The receiver is not modified.
func (vs *VectorShard) EncodeFlat(dst []byte) []byte {
	total := 0
	names := 0
	for i := range vs.Vectors {
		total += vs.Vectors[i].NNZ()
	}
	for _, name := range vs.DocNames {
		names += flatwire.SizeString(name)
	}
	n := len(vs.Vectors)
	// Capacity bound: a varint-coded index is at most 5 bytes, an
	// XOR-coded value block at most 1 + 9 bytes per value.
	size := 4 + 1 + 4*8 + 4 + 8 + 4*n + 5*total + n + 9*total + 1 + 9*n + names
	if dst == nil {
		dst = make([]byte, 0, size)
	}
	b := flatwire.AppendHeader(dst, vectorShardMagic)
	b = flatwire.AppendU64(b, uint64(vs.Lo))
	b = flatwire.AppendU64(b, uint64(vs.Hi))
	b = flatwire.AppendU64(b, uint64(vs.Dim))
	b = flatwire.AppendI64(b, vs.DictFootprint)
	b = flatwire.AppendU32(b, uint32(n))
	b = flatwire.AppendU64(b, uint64(total))
	for i := range vs.Vectors {
		b = flatwire.AppendU32(b, uint32(vs.Vectors[i].NNZ()))
	}
	for i := range vs.Vectors {
		b = flatwire.AppendDeltaU32s(b, vs.Vectors[i].Idx)
	}
	for i := range vs.Vectors {
		b = flatwire.AppendF64sXor(b, vs.Vectors[i].Val)
	}
	b = flatwire.AppendF64sXor(b, vs.Norms)
	for _, name := range vs.DocNames {
		b = flatwire.AppendString(b, name)
	}
	return b
}

// DecodeFlatVectorShard decodes a flat VectorShard buffer, validating the
// layout (magic, counts, truncation, trailing bytes) and returning an error
// for any malformed input. Vector entries decode into two shared backing
// arrays, subsliced per document.
func DecodeFlatVectorShard(b []byte) (*VectorShard, error) {
	r := flatwire.NewReader(b)
	vs, err := ConsumeFlatVectorShard(r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("tfidf: decode vector shard: %w", err)
	}
	return vs, nil
}

// ConsumeFlatVectorShard decodes one flat VectorShard from r, which may
// carry further payload after it — the form a caller uses to count the
// shard's value blocks on its own reader.
func ConsumeFlatVectorShard(r *flatwire.Reader) (*VectorShard, error) {
	r.Header(vectorShardMagic, "tfidf vector shard")
	vs := &VectorShard{
		Lo:  int(r.U64()),
		Hi:  int(r.U64()),
		Dim: int(r.U64()),
	}
	vs.DictFootprint = r.I64()
	n := r.Count(4)
	total := int(r.U64())
	nnz := r.U32s(n)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("tfidf: decode vector shard: %w", err)
	}
	sum := 0
	for _, c := range nnz {
		sum += int(c)
	}
	if sum != total {
		return nil, fmt.Errorf("tfidf: decode vector shard: per-document entry counts sum to %d, header says %d", sum, total)
	}
	if total > r.Remaining() { // an entry takes at least an index byte and a value byte
		return nil, fmt.Errorf("tfidf: decode vector shard: %w: %d entries in %d bytes", flatwire.ErrMalformed, total, r.Remaining())
	}
	idx := make([]uint32, total)
	val := make([]float64, total)
	off := 0
	for i, c := range nnz {
		r.DeltaU32sInto(idx[off : off+int(c)])
		if r.Err() != nil {
			break
		}
		// Every document's indices must be strictly ascending — the
		// sparse.Vector invariant. A zero delta would otherwise smuggle in
		// a duplicate and break every kernel that binary-searches or
		// merges the vectors.
		for e := off + 1; e < off+int(c); e++ {
			if idx[e] <= idx[e-1] {
				return nil, fmt.Errorf("tfidf: decode vector shard: %w: document %d indices not strictly ascending", flatwire.ErrMalformed, i)
			}
		}
		off += int(c)
	}
	off = 0
	for _, c := range nnz {
		r.F64sXorInto(val[off : off+int(c)])
		off += int(c)
	}
	vs.Vectors = make([]sparse.Vector, n)
	off = 0
	for i, c := range nnz {
		vs.Vectors[i] = sparse.Vector{
			Idx: idx[off : off+int(c) : off+int(c)],
			Val: val[off : off+int(c) : off+int(c)],
		}
		off += int(c)
	}
	vs.Norms = r.F64sXor(n)
	vs.DocNames = make([]string, n)
	for i := range vs.DocNames {
		vs.DocNames[i] = r.String()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("tfidf: decode vector shard: %w", err)
	}
	return vs, nil
}

// EncodeFlat returns the count reply in flat wire form, appended to dst
// (pass nil). The receiver is not modified.
//
// Layout (little-endian):
//
//	magic u32 | version u8 | lo u64 | hi u64 | nDocs u32
//	nWords u32 × nDocs              (per-document term counts)
//	words  (u32 len + bytes) × Σ    (all documents' words, concatenated)
//	counts u32 × Σ                  (all documents' frequencies)
//	names marker u32                (0 = nil, 1 = present)
//	[names (u32 len + bytes) × nDocs]
//	df marker u32                   (0 = omitted, 1 = present)
//	[nDF u32 | dfWords (u32 len + bytes) × nDF | dfCounts u32 × nDF]
//
// Term frequencies are unsorted, so every block here is raw; the version
// byte is the same one every flat payload carries.
func (w *WireShardCounts) EncodeFlat(dst []byte) []byte {
	b := flatwire.AppendHeader(dst, wireShardCountsMagic)
	b = flatwire.AppendU64(b, uint64(w.Lo))
	b = flatwire.AppendU64(b, uint64(w.Hi))
	b = flatwire.AppendU32(b, uint32(len(w.Docs)))
	for i := range w.Docs {
		b = flatwire.AppendU32(b, uint32(len(w.Docs[i].Words)))
	}
	for i := range w.Docs {
		for _, word := range w.Docs[i].Words {
			b = flatwire.AppendString(b, word)
		}
	}
	for i := range w.Docs {
		b = flatwire.AppendU32s(b, w.Docs[i].Counts)
	}
	if w.DocNames == nil {
		b = flatwire.AppendU32(b, 0)
	} else {
		b = flatwire.AppendU32(b, 1)
		for _, name := range w.DocNames {
			b = flatwire.AppendString(b, name)
		}
	}
	if w.DFWords == nil {
		b = flatwire.AppendU32(b, 0)
	} else {
		b = flatwire.AppendU32(b, 1)
		b = flatwire.AppendU32(b, uint32(len(w.DFWords)))
		for _, word := range w.DFWords {
			b = flatwire.AppendString(b, word)
		}
		b = flatwire.AppendU32s(b, w.DFCounts)
	}
	return b
}

// DecodeFlatWireShardCounts decodes a flat count reply, validating the
// layout (magic, version, counts, truncation, trailing bytes).
func DecodeFlatWireShardCounts(b []byte) (*WireShardCounts, error) {
	r := flatwire.NewReader(b)
	w, err := ConsumeFlatWireShardCounts(r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("tfidf: decode shard counts: %w", err)
	}
	return w, nil
}

// ConsumeFlatWireShardCounts decodes one flat count reply from r, which
// may carry further payload after it (a transform task's arguments embed
// the shard's counts).
func ConsumeFlatWireShardCounts(r *flatwire.Reader) (*WireShardCounts, error) {
	r.Header(wireShardCountsMagic, "tfidf shard counts")
	w := &WireShardCounts{
		Lo: int(r.U64()),
		Hi: int(r.U64()),
	}
	n := r.Count(4)
	nwords := r.U32s(n)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("tfidf: decode shard counts: %w", err)
	}
	// Every word takes at least its 4-byte length and 4-byte count, so a
	// corrupt per-document count fails here instead of driving a giant
	// allocation.
	words := 0
	for _, c := range nwords {
		words += int(c)
	}
	if words > r.Remaining()/8 {
		return nil, fmt.Errorf("tfidf: decode shard counts: %w: %d words in %d bytes", flatwire.ErrMalformed, words, r.Remaining())
	}
	w.Docs = make([]WireDocCounts, n)
	for i := range w.Docs {
		c := int(nwords[i])
		if c > 0 {
			w.Docs[i].Words = make([]string, c)
		}
	}
	for i := range w.Docs {
		for k := range w.Docs[i].Words {
			w.Docs[i].Words[k] = r.String()
		}
	}
	for i := range w.Docs {
		if c := int(nwords[i]); c > 0 {
			w.Docs[i].Counts = make([]uint32, c)
			r.U32sInto(w.Docs[i].Counts)
		}
	}
	switch r.U32() {
	case 0:
	case 1:
		w.DocNames = make([]string, n)
		for i := range w.DocNames {
			w.DocNames[i] = r.String()
		}
	default:
		return nil, fmt.Errorf("tfidf: decode shard counts: %w: bad names marker", flatwire.ErrMalformed)
	}
	switch r.U32() {
	case 0:
	case 1:
		nd := r.Count(4)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("tfidf: decode shard counts: %w", err)
		}
		w.DFWords = make([]string, nd)
		for i := range w.DFWords {
			w.DFWords[i] = r.String()
		}
		w.DFCounts = make([]uint32, nd)
		r.U32sInto(w.DFCounts)
	default:
		return nil, fmt.Errorf("tfidf: decode shard counts: %w: bad DF marker", flatwire.ErrMalformed)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("tfidf: decode shard counts: %w", err)
	}
	return w, nil
}

// EncodeFlat returns the global term table in flat wire form, appended to
// dst (pass nil). The receiver is not modified.
//
// Layout (little-endian):
//
//	magic u32 | version u8 | numDocs u64 | nTerms u32
//	df    uvarint × nTerms
//	terms (u32 len + bytes) × nTerms
//
// Document frequencies follow a Zipfian tail of small counts, so
// varint-coding them shrinks most entries from four bytes to one.
func (w *WireGlobal) EncodeFlat(dst []byte) []byte {
	b := flatwire.AppendHeader(dst, wireGlobalMagic)
	b = flatwire.AppendU64(b, uint64(w.NumDocs))
	b = flatwire.AppendU32(b, uint32(len(w.Terms)))
	for _, df := range w.DF {
		b = flatwire.AppendUvarint(b, uint64(df))
	}
	for _, term := range w.Terms {
		b = flatwire.AppendString(b, term)
	}
	return b
}

// DecodeFlatWireGlobal decodes a flat global term table, validating the
// layout (magic, version, counts, truncation, trailing bytes).
func DecodeFlatWireGlobal(b []byte) (*WireGlobal, error) {
	r := flatwire.NewReader(b)
	r.Header(wireGlobalMagic, "tfidf global table")
	w := &WireGlobal{NumDocs: int(r.U64())}
	n := r.Count(4)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("tfidf: decode global table: %w", err)
	}
	w.DF = make([]uint32, n)
	for i := range w.DF {
		v := r.Uvarint()
		if v > 0xffffffff {
			return nil, fmt.Errorf("tfidf: decode global table: %w: DF %d overflows uint32", flatwire.ErrMalformed, v)
		}
		w.DF[i] = uint32(v)
	}
	w.Terms = make([]string, n)
	for i := range w.Terms {
		w.Terms[i] = r.String()
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("tfidf: decode global table: %w", err)
	}
	return w, nil
}

// AppendFlat appends the options in flat form:
//
//	dictKind u8 | globalPresize i64 | docPresize i64 | shards i64
//	minWordLen i64 | stem u8 | normalize u8
func (w WireOptions) AppendFlat(b []byte) []byte {
	b = append(b, byte(w.DictKind))
	b = flatwire.AppendI64(b, int64(w.GlobalPresize))
	b = flatwire.AppendI64(b, int64(w.DocPresize))
	b = flatwire.AppendI64(b, int64(w.Shards))
	b = flatwire.AppendI64(b, int64(w.MinWordLen))
	b = flatwire.AppendBool(b, w.Stem)
	return flatwire.AppendBool(b, w.Normalize)
}

// ConsumeWireOptions decodes options written by AppendFlat from r. An
// unknown dictionary kind fails the reader as malformed.
func ConsumeWireOptions(r *flatwire.Reader) WireOptions {
	kind := r.U8()
	w := WireOptions{
		DictKind:      dict.Kind(kind),
		GlobalPresize: int(r.I64()),
		DocPresize:    int(r.I64()),
		Shards:        int(r.I64()),
		MinWordLen:    int(r.I64()),
		Stem:          r.Bool(),
		Normalize:     r.Bool(),
	}
	if int(kind) >= len(dict.Kinds()) {
		r.Fail("unknown dictionary kind %d", kind)
	}
	return w
}
