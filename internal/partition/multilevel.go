package partition

import (
	"math/rand"
)

// The multilevel bisection pipeline: coarsen → initial bisection → refine
// while un-coarsening. All stages are deterministic given the Options seed.

const (
	coarsestSize   = 48   // stop coarsening below this many vertices
	minCoarsenGain = 0.97 // stop when a level shrinks less than 3%
	initialTries   = 8    // random restarts for the initial bisection
	refinePasses   = 6    // FM passes per level
)

// coarseLevel links one coarsening level to the next-finer one.
type coarseLevel struct {
	g    *ugraph
	map_ []int32 // fine vertex → coarse vertex (on the finer graph)
}

// coarsen builds the hierarchy of successively smaller graphs using
// heavy-edge matching. Returns the levels from finest to coarsest; the
// first entry has map_ == nil.
func coarsen(g *ugraph, rng *rand.Rand) []coarseLevel {
	levels := []coarseLevel{{g: g}}
	cur := g
	for cur.numNodes() > coarsestSize {
		match := heavyEdgeMatch(cur, rng)
		next, cmap := contract(cur, match)
		if float64(next.numNodes()) > minCoarsenGain*float64(cur.numNodes()) {
			break // diminishing returns (e.g. star graphs)
		}
		levels = append(levels, coarseLevel{g: next, map_: cmap})
		cur = next
	}
	return levels
}

// heavyEdgeMatch matches each unmatched vertex with its unmatched neighbor
// of maximum edge weight (ties to smaller id). Returns match[v] = partner
// or v itself when unmatched.
func heavyEdgeMatch(g *ugraph, rng *rand.Rand) []int32 {
	n := g.numNodes()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	for _, vi := range order {
		v := int32(vi)
		if match[v] >= 0 {
			continue
		}
		best := int32(-1)
		bestW := int32(-1)
		nbrs, wts := g.neighbors(v)
		for i, nb := range nbrs {
			if nb == v || match[nb] >= 0 {
				continue
			}
			if wts[i] > bestW || (wts[i] == bestW && nb < best) {
				best, bestW = nb, wts[i]
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v
		}
	}
	return match
}

// contract builds the coarse graph for a matching. cmap maps fine → coarse.
func contract(g *ugraph, match []int32) (*ugraph, []int32) {
	n := g.numNodes()
	cmap := make([]int32, n)
	for i := range cmap {
		cmap[i] = -1
	}
	var cn int32
	for v := int32(0); v < int32(n); v++ {
		if cmap[v] >= 0 {
			continue
		}
		cmap[v] = cn
		if m := match[v]; m != v && m >= 0 {
			cmap[m] = cn
		}
		cn++
	}
	vwgt := make([]int32, cn)
	for v := int32(0); v < int32(n); v++ {
		vwgt[cmap[v]] += g.vwgt[v]
	}
	// Each coarse vertex merges at most two fine vertices; record them.
	members := make([][2]int32, cn)
	for i := range members {
		members[i] = [2]int32{-1, -1}
	}
	for v := int32(0); v < int32(n); v++ {
		c := cmap[v]
		if members[c][0] < 0 {
			members[c][0] = v
		} else {
			members[c][1] = v
		}
	}
	// Accumulate coarse edges with an epoch-stamped scatter buffer so
	// parallel fine edges merge into one weighted coarse edge.
	xadj := make([]int32, cn+1)
	var adjncy, adjwgt []int32
	seen := make([]int32, cn) // position of cb within the current row
	stamp := make([]int32, cn)
	var epoch int32
	for c := int32(0); c < cn; c++ {
		epoch++
		rowStart := len(adjncy)
		for _, v := range members[c] {
			if v < 0 {
				continue
			}
			nbrs, wts := g.neighbors(v)
			for i, nb := range nbrs {
				cb := cmap[nb]
				if cb == c {
					continue
				}
				if stamp[cb] == epoch {
					adjwgt[rowStart+int(seen[cb])] += wts[i]
				} else {
					stamp[cb] = epoch
					seen[cb] = int32(len(adjncy) - rowStart)
					adjncy = append(adjncy, cb)
					adjwgt = append(adjwgt, wts[i])
				}
			}
		}
		xadj[c+1] = int32(len(adjncy))
	}
	cg := &ugraph{xadj: xadj, adjncy: adjncy, adjwgt: adjwgt, vwgt: vwgt}
	cg.sortAdj()
	return cg, cmap
}

// initialBisection grows a region from random seeds until it holds
// targetW weight, several times, keeping the smallest cut that respects
// the balance bound.
func initialBisection(g *ugraph, targetW int64, maxW int64, rng *rand.Rand) []int8 {
	n := g.numNodes()
	var best []int8
	bestCut := int64(1) << 62
	for try := 0; try < initialTries; try++ {
		side := make([]int8, n)
		for i := range side {
			side[i] = 1
		}
		var w int64
		start := int32(rng.Intn(n))
		queue := []int32{start}
		inQ := make([]bool, n)
		inQ[start] = true
		for len(queue) > 0 && w < targetW {
			v := queue[0]
			queue = queue[1:]
			if side[v] == 0 {
				continue
			}
			if w+int64(g.vwgt[v]) > maxW {
				continue
			}
			side[v] = 0
			w += int64(g.vwgt[v])
			nbrs, _ := g.neighbors(v)
			for _, nb := range nbrs {
				if !inQ[nb] && side[nb] == 1 {
					inQ[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		// If BFS exhausted a small component, top up with arbitrary nodes.
		for v := int32(0); v < int32(n) && w < targetW; v++ {
			if side[v] == 1 && w+int64(g.vwgt[v]) <= maxW {
				side[v] = 0
				w += int64(g.vwgt[v])
			}
		}
		if cut := g.cutWeight(side); cut < bestCut {
			bestCut = cut
			best = side
		}
	}
	return best
}

// fmRefine runs Fiduccia–Mattheyses passes over every vertex (not just
// the cut boundary): repeatedly move the highest-gain vertex whose move
// keeps both sides within [minW, maxW] (ties to the smaller id),
// allowing negative-gain moves within a pass and rolling back to the
// best prefix (hill climbing out of local minima). A pass stops after
// about 2n/3 moves.
//
// Candidates come from one gain-ordered heap per side, so a move costs
// O(log n) plus its degree rather than a scan of all n vertices. The
// heaps pick exactly the vertex the scan would (see fmRefineScan in the
// tests), so the partitions, and with them pprprecomp's output, are the
// ones the scan made.
func fmRefine(g *ugraph, side []int8, minW, maxW int64) {
	n := g.numNodes()
	w := [2]int64{}
	lightest := int64(1) << 62
	for v := 0; v < n; v++ {
		w[side[v]] += int64(g.vwgt[v])
		lightest = min(lightest, int64(g.vwgt[v]))
	}
	gain := make([]int64, n)
	computeGain := func(v int32) int64 {
		var ext, int_ int64
		nbrs, wts := g.neighbors(v)
		for i, nb := range nbrs {
			if side[nb] == side[v] {
				int_ += int64(wts[i])
			} else {
				ext += int64(wts[i])
			}
		}
		return ext - int_
	}
	q := newGainQueues(gain)
	// bestFrom returns the best vertex that can leave side s, or -1.
	bestFrom := func(s int8) int32 {
		limit := min(maxW-w[1-s], w[s]-minW)
		if limit < lightest {
			return -1 // no vertex is light enough: skip the heap search
		}
		return q.best(s, limit, g.vwgt)
	}
	moves := make([]int32, 0, n)
	for pass := 0; pass < refinePasses; pass++ {
		for v := int32(0); v < int32(n); v++ {
			gain[v] = computeGain(v)
		}
		q.fill(side)
		moves = moves[:0]
		var cum, bestCum int64
		bestIdx := -1
		for step := 0; step < n; step++ {
			bestV := bestFrom(0)
			if c := bestFrom(1); c >= 0 && (bestV < 0 || q.before(c, bestV)) {
				bestV = c
			}
			if bestV < 0 {
				break
			}
			// Apply the move.
			from := side[bestV]
			to := 1 - from
			q.remove(from, bestV)
			side[bestV] = to
			w[from] -= int64(g.vwgt[bestV])
			w[to] += int64(g.vwgt[bestV])
			cum += gain[bestV]
			moves = append(moves, bestV)
			if cum > bestCum {
				bestCum = cum
				bestIdx = len(moves) - 1
			}
			// Update neighbor gains.
			nbrs, wts := g.neighbors(bestV)
			for i, nb := range nbrs {
				if q.locked(nb) {
					continue
				}
				if side[nb] == to {
					gain[nb] -= 2 * int64(wts[i])
				} else {
					gain[nb] += 2 * int64(wts[i])
				}
				q.fix(side[nb], nb)
			}
			if len(moves) > 2*n/3+16 {
				break
			}
		}
		// Roll back moves after the best prefix.
		for i := len(moves) - 1; i > bestIdx; i-- {
			v := moves[i]
			from := side[v]
			to := 1 - from
			side[v] = to
			w[from] -= int64(g.vwgt[v])
			w[to] += int64(g.vwgt[v])
		}
		if bestCum <= 0 && bestIdx < 0 {
			break // no improvement found this pass
		}
	}
}

// bisect computes a 2-way partition of g with part 0 targeting frac of the
// total weight, tolerating imbalance imb (e.g. 0.05 = 5%).
func bisect(g *ugraph, frac float64, imb float64, rng *rand.Rand) []int8 {
	total := g.totalWeight()
	target := int64(frac * float64(total))
	levels := coarsen(g, rng)
	coarsest := levels[len(levels)-1].g
	maxW0 := int64(float64(target) * (1 + imb))
	minW0 := int64(float64(target) * (1 - imb))
	if maxW0 >= total {
		maxW0 = total - 1
	}
	if minW0 < 1 {
		minW0 = 1
	}
	side := initialBisection(coarsest, target, maxW0, rng)
	fmRefine(coarsest, side, minW0, maxW0)
	// Project back through the levels, refining at each.
	for li := len(levels) - 1; li >= 1; li-- {
		fine := levels[li-1].g
		cmap := levels[li].map_
		fineSide := make([]int8, fine.numNodes())
		for v := range fineSide {
			fineSide[v] = side[cmap[v]]
		}
		side = fineSide
		fmRefine(fine, side, minW0, maxW0)
	}
	return side
}
