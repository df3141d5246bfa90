package kmeans

import (
	"fmt"
	"reflect"
	"testing"

	"hpa/internal/par"
	"hpa/internal/sparse"
)

// TestBlockSizeResolution pins the width rule: 8 lanes from k >= 8, 4
// from k >= 4, the scalar kernel (no layout) below.
func TestBlockSizeResolution(t *testing.T) {
	for _, tc := range []struct{ k, want int }{
		{1, 0}, {3, 0}, {4, 4}, {7, 4}, {8, 8}, {13, 8}, {64, 8},
	} {
		if got := BlockSize(tc.k); got != tc.want {
			t.Errorf("BlockSize(%d) = %d, want %d", tc.k, got, tc.want)
		}
	}
	docs := sparseMix(40, 16, 3)
	p := par.NewPool(1)
	defer p.Close()
	for _, k := range []int{3, 5, 8} {
		c, err := New(docs, 16, p, Options{K: k, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if blocked := c.layout != nil; blocked != (BlockSize(k) > 0) {
			t.Errorf("k=%d: clusterer has layout=%v, BlockSize=%d", k, blocked, BlockSize(k))
		}
	}
}

// TestBlockedAssignBitIdentical is the blocked-kernel contract at the
// kmeans level: the clusterer's blocked kernel produces results
// bit-identical to the scalar kernel (AssignRange with a nil layout) —
// assignments, centroids, counts, inertia history and convergence — on a
// corpus that includes genuinely empty (zero-nnz) documents, at cluster
// counts below the first width (k=3, scalar on both sides), on the 4-lane
// width with a ragged tail (k=5) and on the 8-lane width with a ragged
// tail (k=13), under every prune mode in front of the full-scan fallback.
func TestBlockedAssignBitIdentical(t *testing.T) {
	docs := sparseMix(300, 32, 13)
	empties := 0
	for i := range docs {
		if i%7 == 3 {
			docs[i] = sparse.Vector{} // genuine zero-nnz document
			empties++
		}
	}
	if empties == 0 {
		t.Fatal("corpus has no empty documents; the test would not cover them")
	}
	p := par.NewPool(1)
	defer p.Close()
	run := func(opts Options, scalar bool) *Result {
		c, err := New(docs, 32, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return iterateSharded(c, 4, scalar)
	}
	for _, k := range []int{3, 5, 13} {
		for _, prune := range []PruneMode{PruneAuto, PruneOff, PruneOn, PruneElkan} {
			empty := KeepCentroid
			if k == 13 {
				empty = ReseedFarthest
			}
			t.Run(fmt.Sprintf("k=%d/prune=%v", k, prune), func(t *testing.T) {
				opts := Options{K: k, Seed: uint64(k), Prune: prune, Empty: empty}
				scalar, blocked := run(opts, true), run(opts, false)
				// Wall-clock timing is the only field allowed to differ.
				wantC, gotC := *scalar, *blocked
				wantC.SeedWall, gotC.SeedWall = 0, 0
				if !reflect.DeepEqual(&wantC, &gotC) {
					t.Errorf("blocked result differs from scalar:\n  scalar:  iters=%d inertia=%v\n  blocked: iters=%d inertia=%v",
						scalar.Iterations, scalar.Inertia, blocked.Iterations, blocked.Inertia)
				}
			})
		}
	}
}
