// Package partition implements a METIS-style multilevel graph partitioner
// (heavy-edge-matching coarsening, greedy region-growing initial bisection,
// Fiduccia–Mattheyses refinement over gain-ordered heaps) plus the paper's
// hub-node selection: the bridging nodes between parts are chosen as a
// vertex cover of the cut edges — minimum via König's theorem for 2-way
// cuts, greedy 2-approximation otherwise (Appendix D).
package partition

import (
	"slices"

	"exactppr/internal/graph"
)

// ugraph is the undirected weighted working representation used across
// coarsening levels. Vertices carry weights (number of original nodes they
// stand for) and parallel edges are merged with summed weights.
type ugraph struct {
	xadj   []int32 // CSR offsets, len n+1
	adjncy []int32 // neighbor ids
	adjwgt []int32 // edge weights, parallel to adjncy
	vwgt   []int32 // vertex weights, len n
}

func (u *ugraph) numNodes() int { return len(u.vwgt) }

func (u *ugraph) neighbors(v int32) ([]int32, []int32) {
	return u.adjncy[u.xadj[v]:u.xadj[v+1]], u.adjwgt[u.xadj[v]:u.xadj[v+1]]
}

func (u *ugraph) totalWeight() int64 {
	var t int64
	for _, w := range u.vwgt {
		t += int64(w)
	}
	return t
}

// undirectedView collapses a directed graph into the ugraph form: edge
// (a,b) exists when a→b or b→a exists; weight is the number of directed
// edges between the pair (1 or 2).
func undirectedView(g *graph.Graph) *ugraph {
	n := g.NumNodes()
	type pair struct{ a, b int32 }
	w := make(map[pair]int32, g.NumEdges())
	for a := int32(0); a < int32(n); a++ {
		for _, b := range g.Out(a) {
			p := pair{a, b}
			if b < a {
				p = pair{b, a}
			}
			w[p]++
		}
	}
	deg := make([]int32, n+1)
	for p := range w {
		deg[p.a+1]++
		deg[p.b+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	adjncy := make([]int32, 2*len(w))
	adjwgt := make([]int32, 2*len(w))
	next := make([]int32, n)
	copy(next, deg[:n])
	for p, wt := range w {
		adjncy[next[p.a]] = p.b
		adjwgt[next[p.a]] = wt
		next[p.a]++
		adjncy[next[p.b]] = p.a
		adjwgt[next[p.b]] = wt
		next[p.b]++
	}
	vwgt := make([]int32, n)
	for i := range vwgt {
		vwgt[i] = 1
	}
	ug := &ugraph{xadj: deg, adjncy: adjncy, adjwgt: adjwgt, vwgt: vwgt}
	ug.sortAdj()
	return ug
}

// sortAdj sorts each adjacency list by id, keeping weights aligned. Sorted
// lists make coarse-graph construction and tests deterministic. Rows are
// sorted in place: short ones by insertion sort, long ones as packed
// (id, weight) keys through one reused buffer.
func (u *ugraph) sortAdj() {
	const shortRow = 16
	var keys []uint64
	for v := 0; v < u.numNodes(); v++ {
		ids := u.adjncy[u.xadj[v]:u.xadj[v+1]]
		wts := u.adjwgt[u.xadj[v]:u.xadj[v+1]]
		if len(ids) <= shortRow {
			for i := 1; i < len(ids); i++ {
				id, wt := ids[i], wts[i]
				j := i
				for ; j > 0 && ids[j-1] > id; j-- {
					ids[j], wts[j] = ids[j-1], wts[j-1]
				}
				ids[j], wts[j] = id, wt
			}
			continue
		}
		// Ids are non-negative, so the packed keys order by id first.
		keys = keys[:0]
		for i, id := range ids {
			keys = append(keys, uint64(id)<<32|uint64(uint32(wts[i])))
		}
		slices.Sort(keys)
		for i, k := range keys {
			ids[i], wts[i] = int32(k>>32), int32(uint32(k))
		}
	}
}

// cutWeight returns the total weight of edges crossing the bisection
// defined by side (0/1 per vertex).
func (u *ugraph) cutWeight(side []int8) int64 {
	var cut int64
	for v := int32(0); v < int32(u.numNodes()); v++ {
		nbrs, wts := u.neighbors(v)
		for i, nb := range nbrs {
			if nb > v && side[nb] != side[v] {
				cut += int64(wts[i])
			}
		}
	}
	return cut
}
