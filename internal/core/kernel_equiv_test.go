package core

import (
	"math"
	"math/rand"
	"testing"

	"exactppr/internal/gen"
	"exactppr/internal/graph"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// The cross-kernel acceptance contract: stores built (or incrementally
// maintained) under any Params.Kernel agree within 1e-9 per entry.
const kernelTol = 1e-9

// kernelTestGraph returns a fresh, identical graph per call so each
// kernel's store owns its root graph (ApplyUpdates mutates it).
func kernelTestGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.Community(gen.Config{
		Nodes: 300, AvgOutDegree: 4, Communities: 3,
		InterFrac: 0.08, Seed: seed, // MinOutDegree 0: keep some dangling nodes in play
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func comparePackedMaps(t *testing.T, section string, got, want map[int32]sparse.Packed) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d", section, len(got), len(want))
	}
	for key, w := range want {
		gv, ok := got[key]
		if !ok {
			t.Fatalf("%s: key %d missing", section, key)
		}
		if gv.Len() != w.Len() {
			t.Fatalf("%s[%d]: %d entries, want %d", section, key, gv.Len(), w.Len())
		}
		w.ForEach(func(id int32, x float64) {
			if math.Abs(gv.Get(id)-x) > kernelTol {
				t.Fatalf("%s[%d]: entry %d = %v, want %v", section, key, id, gv.Get(id), x)
			}
		})
	}
}

func compareStores(t *testing.T, got, want *Store) {
	t.Helper()
	comparePackedMaps(t, "HubPartial", got.HubPartial, want.HubPartial)
	comparePackedMaps(t, "Skeleton", skeletonMap(t, got), skeletonMap(t, want))
	comparePackedMaps(t, "LeafPPV", got.LeafPPV, want.LeafPPV)
}

// TestKernelEquivalenceStore: the full HGPA pre-computation — hub
// partials, skeletons, leaf PPVs — is identical within 1e-9 across
// KernelDense, KernelPush, and KernelAuto, for both dangling policies.
func TestKernelEquivalenceStore(t *testing.T) {
	for _, dangling := range []ppr.DanglingPolicy{ppr.DanglingAbsorb, ppr.DanglingRestart} {
		build := func(k ppr.Kernel) *Store {
			p := ppr.Params{Alpha: 0.15, Eps: 1e-5, Dangling: dangling, Kernel: k}
			s, err := BuildHGPA(kernelTestGraph(t, 7), hierarchy.Options{Seed: 3}, p, 3)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		dense := build(ppr.KernelDense)
		compareStores(t, build(ppr.KernelPush), dense)
		compareStores(t, build(ppr.KernelAuto), dense)
	}
}

// TestKernelEquivalenceAfterUpdates: stores maintained through the same
// sequence of edge-delta batches stay within 1e-9 of each other —
// section maps and query results alike — whatever kernel recomputes
// the dirty partitions.
func TestKernelEquivalenceAfterUpdates(t *testing.T) {
	build := func(k ppr.Kernel) *Store {
		p := ppr.Params{Alpha: 0.15, Eps: 1e-6, Kernel: k}
		s, err := BuildHGPA(kernelTestGraph(t, 11), hierarchy.Options{Seed: 5}, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	dense := build(ppr.KernelDense)
	push := build(ppr.KernelPush)

	rng := rand.New(rand.NewSource(13))
	n := int32(dense.H.G.NumNodes())
	for batch := 0; batch < 6; batch++ {
		var d graph.Delta
		for i := 0; i < 10; i++ {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if u == v {
				continue
			}
			if rng.Intn(2) == 0 {
				d.Insert = append(d.Insert, [2]int32{u, v})
			} else {
				d.Delete = append(d.Delete, [2]int32{u, v})
			}
		}
		var err error
		dense, _, err = dense.ApplyUpdates(d, 3)
		if err != nil {
			t.Fatalf("batch %d (dense): %v", batch, err)
		}
		push, _, err = push.ApplyUpdates(d, 3)
		if err != nil {
			t.Fatalf("batch %d (push): %v", batch, err)
		}
	}
	compareStores(t, push, dense)
	for _, u := range sampleQueries(dense) {
		want, err := dense.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := push.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d entries, want %d", u, len(got), len(want))
		}
		for id, x := range want {
			if math.Abs(got.Get(id)-x) > kernelTol {
				t.Fatalf("query %d: entry %d = %v, want %v", u, id, got.Get(id), x)
			}
		}
	}
}

// TestPrecomputeInfoKernelStats: the info block records the kernel and
// a plausible work tally (every vector needs at least one push; dense
// drains everything, pure push drains nothing densely).
func TestPrecomputeInfoKernelStats(t *testing.T) {
	for _, k := range []ppr.Kernel{ppr.KernelAuto, ppr.KernelDense, ppr.KernelPush} {
		p := ppr.Params{Alpha: 0.15, Eps: 1e-4, Kernel: k}
		h, err := hierarchy.Build(kernelTestGraph(t, 17), hierarchy.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		s, info, err := PrecomputeWithInfo(h, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		if info.Kernel != k {
			t.Fatalf("info.Kernel = %v, want %v", info.Kernel, k)
		}
		if want := 2*len(s.HubPartial) + len(s.LeafPPV); info.Vectors != want {
			t.Fatalf("info.Vectors = %d, want %d", info.Vectors, want)
		}
		if info.Pushes <= 0 {
			t.Fatalf("info.Pushes = %d, want > 0", info.Pushes)
		}
		switch k {
		case ppr.KernelDense:
			if info.DenseFallbacks != int64(info.Vectors) {
				t.Fatalf("dense: fallbacks %d, want %d", info.DenseFallbacks, info.Vectors)
			}
		case ppr.KernelPush:
			if info.DenseFallbacks != 0 {
				t.Fatalf("push: fallbacks %d, want 0", info.DenseFallbacks)
			}
		}
	}
}
