package main

import (
	"bytes"
	"fmt"
	"testing"

	"exactppr/internal/gen"
	"exactppr/internal/graph"
)

func testGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.Dataset("email", 0.25, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// encodeOps is the canonical text form of an op sequence and a batch
// sequence, compared byte for byte.
func encodeOps(ops []op, batches []graph.Delta) []byte {
	var b bytes.Buffer
	for _, o := range ops {
		if o.Kind == opSet {
			fmt.Fprintf(&b, "set %v\n", o.Nodes)
		} else {
			fmt.Fprintf(&b, "read %d\n", o.Node)
		}
	}
	for i, d := range batches {
		fmt.Fprintf(&b, "batch %d +%v -%v\n", i, d.Insert, d.Delete)
	}
	return b.Bytes()
}

func inputs(t *testing.T, seed int64, zipf bool) []byte {
	g := testGraph(t, seed)
	s := uniformSampler(g.NumNodes())
	if zipf {
		s = zipfSampler(g.NumNodes(), seed)
	}
	ops := opStream(seed, "timed-0", s, 5000)
	return encodeOps(ops, updateBatches(g, seed, 8))
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, zipf := range []bool{false, true} {
		a, b := inputs(t, 7, zipf), inputs(t, 7, zipf)
		if !bytes.Equal(a, b) {
			t.Fatalf("zipf=%v: seed 7 gave two different op sequences", zipf)
		}
		if bytes.Equal(a, inputs(t, 8, zipf)) {
			t.Fatalf("zipf=%v: seeds 7 and 8 gave the same op sequence", zipf)
		}
	}
}

func TestStreamMix(t *testing.T) {
	ops := opStream(3, "x", uniformSampler(50), 20000)
	sets := 0
	for _, o := range ops {
		if o.Kind != opSet {
			continue
		}
		sets++
		if len(o.Nodes) != setSize {
			t.Fatalf("set of %d nodes, want %d", len(o.Nodes), setSize)
		}
		seen := map[int32]bool{}
		for _, u := range o.Nodes {
			if seen[u] {
				t.Fatalf("set %v repeats node %d", o.Nodes, u)
			}
			seen[u] = true
		}
	}
	if frac := float64(sets) / float64(len(ops)); frac < 0.09 || frac > 0.11 {
		t.Errorf("set share %.3f, want about %.2f", frac, setFrac)
	}
}

func TestZipfSkew(t *testing.T) {
	const n = 1000
	s := zipfSampler(n, 1)
	r := rngFor(1, "draws")
	counts := make([]int, n)
	for i := 0; i < 100000; i++ {
		counts[s.draw(r)]++
	}
	// Rank 1 carries 1/H(1000) ≈ 13% of the draws, rank 2 half that.
	top, second := counts[s.perm[0]], counts[s.perm[1]]
	if top < 11000 || top > 15500 || second < top/3 || second > top*2/3 {
		t.Errorf("rank-1 count %d, rank-2 count %d: not Zipf(1)", top, second)
	}
}

func TestUpdateBatchesAreEffective(t *testing.T) {
	g := testGraph(t, 5)
	batches := updateBatches(g, 5, 10)
	edges := g.NumEdges()
	for i, d := range batches {
		ins, del, err := g.ApplyDelta(d)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if ins != batchInsert || del != batchDelete {
			t.Fatalf("batch %d: %d of %d inserts and %d of %d deletes took effect",
				i, ins, batchInsert, del, batchDelete)
		}
	}
	if g.NumEdges() != edges+len(batches)*(batchInsert-batchDelete) {
		t.Errorf("edge count %d after the batches, started at %d", g.NumEdges(), edges)
	}
}
