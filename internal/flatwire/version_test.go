package flatwire_test

import (
	"errors"
	"fmt"
	"testing"

	"hpa/internal/flatwire"
	"hpa/internal/kmeans"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
)

// TestPayloadsRejectOtherVersions: every flat payload writes
// flatwire.Version after its magic, and every decoder rejects any other
// version byte as malformed — including the retired layouts 1 and 2.
func TestPayloadsRejectOtherVersions(t *testing.T) {
	payloads := []struct {
		name   string
		buf    []byte
		decode func([]byte) error
	}{
		{
			"VectorShard",
			(&tfidf.VectorShard{
				Hi: 1, Dim: 4,
				Vectors:  []sparse.Vector{{Idx: []uint32{1, 3}, Val: []float64{0.5, 0.25}}},
				Norms:    []float64{0.3125},
				DocNames: []string{"a"},
			}).EncodeFlat(nil),
			func(b []byte) error { _, err := tfidf.DecodeFlatVectorShard(b); return err },
		},
		{
			"AccumWire",
			(&kmeans.AccumWire{Idx: [][]uint32{{0, 2}}, Val: [][]float64{{1, 2}}, Counts: []int64{1}}).EncodeFlat(nil),
			func(b []byte) error { _, err := kmeans.DecodeFlatAccumWire(b); return err },
		},
		{
			"WireGlobal",
			(&tfidf.WireGlobal{NumDocs: 2, Terms: []string{"a", "b"}, DF: []uint32{1, 2}}).EncodeFlat(nil),
			func(b []byte) error { _, err := tfidf.DecodeFlatWireGlobal(b); return err },
		},
		{
			"WireShardCounts",
			(&tfidf.WireShardCounts{Hi: 1, Docs: []tfidf.WireDocCounts{{Words: []string{"a"}, Counts: []uint32{2}}}}).EncodeFlat(nil),
			func(b []byte) error { _, err := tfidf.DecodeFlatWireShardCounts(b); return err },
		},
	}
	for _, p := range payloads {
		if got := p.buf[4]; got != flatwire.Version {
			t.Errorf("%s: writes version %d, want %d", p.name, got, flatwire.Version)
		}
		if err := p.decode(p.buf); err != nil {
			t.Fatalf("%s: current version rejected: %v", p.name, err)
		}
		for _, v := range []byte{0, 1, 2, 4} {
			t.Run(fmt.Sprintf("%s/version=%d", p.name, v), func(t *testing.T) {
				b := append([]byte(nil), p.buf...)
				b[4] = v
				if err := p.decode(b); !errors.Is(err, flatwire.ErrMalformed) {
					t.Errorf("decode error = %v, want ErrMalformed", err)
				}
			})
		}
	}
}
