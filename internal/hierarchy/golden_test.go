package hierarchy

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"exactppr/internal/gen"
)

// fingerprint hashes the tree shape: every node's level, members and
// hubs, in pre-order.
func fingerprint(h *Hierarchy) uint64 {
	f := fnv.New64a()
	put := func(x int32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		f.Write(b[:])
	}
	for _, n := range h.Nodes() {
		put(int32(n.Level))
		put(int32(len(n.Members)))
		for _, m := range n.Members {
			put(m)
		}
		put(int32(len(n.Hubs)))
		for _, hb := range n.Hubs {
			put(hb)
		}
	}
	return f.Sum64()
}

// goldenWebFingerprint pins the hierarchy of web×0.25 (dataset seed 1,
// partition seed 1). Store files carry their tree, so existing stores
// do not depend on it; what does is pprprecomp's output, which must be
// byte-deterministic for a given dataset and seed. If this test fails,
// a partitioner change altered some partition: confirm the change is
// intended and update the constant.
const goldenWebFingerprint = 0x8924d35a7056b500

func TestGoldenHierarchyFingerprint(t *testing.T) {
	g, err := gen.Dataset("web", 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Build(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(h); got != goldenWebFingerprint {
		t.Fatalf("hierarchy fingerprint %#x, want %#x (%d nodes, %d hubs): the partitioner's output changed",
			got, uint64(goldenWebFingerprint), len(h.Nodes()), h.TotalHubs())
	}
}
