package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"exactppr/internal/graph"
)

// Everything in this file is a pure function of the seed and the graph the
// program loads from the generated edge list: the same seed gives the same
// op streams and the same update batches, byte for byte.

const (
	topK        = 10   // every read and set asks for the top 10
	setSize     = 8    // distinct members per preference set
	setFrac     = 0.10 // share of client ops that are preference sets
	streamLen   = 1 << 15
	batchInsert = 6 // effective inserts per update batch
	batchDelete = 6 // effective deletes per update batch
)

type opKind uint8

const (
	opRead opKind = iota
	opSet
	opUpdate
)

func (k opKind) String() string {
	return [...]string{"read", "set", "update"}[k]
}

// op is one client request. Node is the read source; Nodes the
// preference-set members; Batch indexes the update batch sequence.
type op struct {
	Kind  opKind
	Node  int32
	Nodes []int32
	Batch int
}

// rngFor derives an independent, seeded stream for one named purpose, so
// adding a stream never shifts the values another stream draws.
func rngFor(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, name)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// sampler draws query sources: uniform over all nodes, or Zipf (s = 1)
// over a seeded permutation so the hot nodes are not simply the low ids.
type sampler struct {
	n    int
	perm []int32   // rank -> node (Zipf only)
	cdf  []float64 // cumulative harmonic weights (Zipf only)
}

func uniformSampler(n int) *sampler { return &sampler{n: n} }

func zipfSampler(n int, seed int64) *sampler {
	r := rngFor(seed, "zipf-perm")
	s := &sampler{n: n, perm: make([]int32, n), cdf: make([]float64, n)}
	for i, p := range r.Perm(n) {
		s.perm[i] = int32(p)
	}
	sum := 0.0
	for i := range s.cdf {
		sum += 1 / float64(i+1)
		s.cdf[i] = sum
	}
	return s
}

func (s *sampler) draw(r *rand.Rand) int32 {
	if s.perm == nil {
		return int32(r.Intn(s.n))
	}
	x := r.Float64() * s.cdf[s.n-1]
	i := sort.SearchFloat64s(s.cdf, x)
	if i >= s.n {
		i = s.n - 1
	}
	return s.perm[i]
}

// distinct draws k different nodes; the program rejects a preference set
// that names a node twice.
func (s *sampler) distinct(r *rand.Rand, k int) []int32 {
	out := make([]int32, 0, k)
	seen := make(map[int32]bool, k)
	for len(out) < k {
		u := s.draw(r)
		if !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	return out
}

// opStream returns a client's read/set sequence for one phase.
func opStream(seed int64, name string, s *sampler, n int) []op {
	r := rngFor(seed, name)
	ops := make([]op, n)
	for i := range ops {
		if r.Float64() < setFrac {
			ops[i] = op{Kind: opSet, Nodes: s.distinct(r, setSize)}
		} else {
			ops[i] = op{Kind: opRead, Node: s.draw(r)}
		}
	}
	return ops
}

// updateBatches builds count edge-delta batches that are effective when
// applied in order to g: every insert names an edge absent at that point
// and every delete one that is present, so no batch is a partial no-op.
// g itself is not modified.
func updateBatches(g *graph.Graph, seed int64, count int) []graph.Delta {
	r := rngFor(seed, "updates")
	n := int32(g.NumNodes())
	present := make(map[[2]int32]bool, g.NumEdges())
	var edges [][2]int32 // present edges, for uniform delete draws
	for u := int32(0); u < n; u++ {
		for _, v := range g.Out(u) {
			e := [2]int32{u, v}
			present[e] = true
			edges = append(edges, e)
		}
	}
	out := make([]graph.Delta, count)
	for b := range out {
		touched := map[[2]int32]bool{}
		var d graph.Delta
		for len(d.Delete) < batchDelete {
			i := r.Intn(len(edges))
			e := edges[i]
			if touched[e] {
				continue
			}
			touched[e] = true
			d.Delete = append(d.Delete, e)
			edges[i] = edges[len(edges)-1]
			edges = edges[:len(edges)-1]
			delete(present, e)
		}
		for len(d.Insert) < batchInsert {
			e := [2]int32{int32(r.Intn(int(n))), int32(r.Intn(int(n)))}
			if e[0] == e[1] || present[e] || touched[e] {
				continue
			}
			touched[e] = true
			d.Insert = append(d.Insert, e)
			present[e] = true
			edges = append(edges, e)
		}
		out[b] = d
	}
	return out
}
