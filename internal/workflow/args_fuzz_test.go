package workflow

import (
	"bytes"
	"math"
	"testing"

	"hpa/internal/flatwire"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
)

// The fuzz targets below feed arbitrary bytes to the task wire's frame
// readers and to every flat argument decoder. Malformed input must return
// an error, never panic; accepted input must re-encode to exactly the
// bytes that were read — the decoders are canonical, so nothing a worker
// accepts can mean two things.

// fuzzArgs checks one argument decoder on data.
func fuzzArgs[T interface{ AppendFlat([]byte) []byte }](t *testing.T, data []byte, decode func(*flatwire.Reader) (T, error)) {
	v, err := decode(flatwire.NewReader(data))
	if err != nil {
		return
	}
	if re := v.AppendFlat(nil); !bytes.Equal(re, data) {
		t.Fatalf("accepted %x re-encodes to %x", data, re)
	}
}

func FuzzRequestFrame(f *testing.F) {
	f.Add(endFrame(append(beginRequest(nil, 7, "kmeans.assign"), 1, 2, 3), 0))
	f.Add(endFrame(beginRequest(nil, 0, ""), 0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := readRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		re := endFrame(append(beginRequest(nil, req.ID, req.Op), req.Body...), 0)
		if !bytes.HasPrefix(data, re) {
			t.Fatalf("accepted request re-encodes to %x, read %x", re, data)
		}
	})
}

func FuzzReplyFrame(f *testing.F) {
	for _, rep := range []*reply{
		{ID: 3, ComputeNS: 12345, ValueRaw: 800, ValueCoded: 620, Body: []byte{9, 8, 7}},
		{ID: 4, Status: statusErr, Body: []byte("workflow: boom")},
	} {
		f.Add(append(appendReplyHeader(nil, rep), rep.Body...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := readReply(bytes.NewReader(data))
		if err != nil {
			return
		}
		re := append(appendReplyHeader(nil, rep), rep.Body...)
		if !bytes.HasPrefix(data, re) {
			t.Fatalf("accepted reply re-encodes to %x, read %x", re, data)
		}
	})
}

func FuzzCountTaskArgs(f *testing.F) {
	f.Add((&CountTaskArgs{
		Shard:   pario.SourceSpec{Paths: []string{"a", "b"}, Lo: 2, Hi: 4},
		Session: "tf-1-2-0",
		Opts:    tfidf.WireOptions{DictKind: 2, MinWordLen: 3, Stem: true},
	}).AppendFlat(nil))
	f.Fuzz(func(t *testing.T, data []byte) { fuzzArgs(t, data, decodeCountTaskArgs) })
}

func FuzzTransformTaskArgs(f *testing.F) {
	f.Add((&TransformTaskArgs{CountsSession: "tf-1-2-0", GlobalHash: 42}).AppendFlat(nil))
	f.Add((&TransformTaskArgs{
		Counts: &tfidf.WireShardCounts{
			Hi:       1,
			Docs:     []tfidf.WireDocCounts{{Words: []string{"a"}, Counts: []uint32{2}}},
			DocNames: []string{"d"},
		},
		GlobalFlat: (&tfidf.WireGlobal{Terms: []string{"a"}, DF: []uint32{1}, NumDocs: 1}).EncodeFlat(nil),
	}).AppendFlat(nil))
	f.Fuzz(func(t *testing.T, data []byte) { fuzzArgs(t, data, decodeTransformTaskArgs) })
}

func FuzzKMAssignTaskArgs(f *testing.F) {
	f.Add((&KMAssignTaskArgs{Loop: "km-1-1", Shard: 1, Iter: 2, Assign: []int32{0, 1}}).AppendFlat(nil))
	f.Add((&KMAssignTaskArgs{
		Loop: "km-1-1",
		Init: &KMShardInit{
			Vectors: []sparse.Vector{{Idx: []uint32{0, 3}, Val: []float64{0.5, 1.5}}, {}},
			Norms:   []float64{2.5, 0},
			Dim:     4, K: 2, Prune: true, Elkan: true,
		},
		Centroids: sparseRows([][]float64{{0, 1, 0, math.Copysign(0, -1)}, {2, 0, 0, 0}}, []float64{1, 4}, 4),
		Assign:    []int32{-1, -1},
		Drift:     []float64{0.125, 0},
	}).AppendFlat(nil))
	f.Fuzz(func(t *testing.T, data []byte) { fuzzArgs(t, data, decodeKMAssignTaskArgs) })
}

func FuzzKMSeedTaskArgs(f *testing.F) {
	f.Add((&KMSeedTaskArgs{
		Loop: "km-1-1",
		Init: &KMShardInit{Vectors: []sparse.Vector{{Idx: []uint32{1}, Val: []float64{1}}}, Norms: []float64{1}, Dim: 2, K: 3, WantDists: true},
		Last: sparse.Vector{Idx: []uint32{0}, Val: []float64{2}},
		D2:   []float64{math.Inf(1)},
	}).AppendFlat(nil))
	f.Fuzz(func(t *testing.T, data []byte) { fuzzArgs(t, data, decodeKMSeedTaskArgs) })
}

// releaseKeys adapts the release decoder to fuzzArgs.
type releaseKeys []string

func (k releaseKeys) AppendFlat(b []byte) []byte { return appendReleaseArgs(b, k) }

func FuzzReleaseArgs(f *testing.F) {
	f.Add(appendReleaseArgs(nil, []string{"km-1-1/0", "tf-1-2-3"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzArgs(t, data, func(r *flatwire.Reader) (releaseKeys, error) {
			keys, err := decodeReleaseArgs(r)
			return releaseKeys(keys), err
		})
	})
}
