package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"exactppr/internal/gen"
)

// fmRefineScan is the original O(n)-per-move FM refinement, kept as the
// reference fmRefine must match move for move: each step scans every
// vertex for the highest-gain feasible one (ties to the smaller id). Its
// gain > -2^40 filter never fires (|gain| ≤ 2|E|), so fmRefine drops it.
func fmRefineScan(g *ugraph, side []int8, minW, maxW int64) {
	n := g.numNodes()
	w := [2]int64{}
	for v := 0; v < n; v++ {
		w[side[v]] += int64(g.vwgt[v])
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
	for pass := 0; pass < refinePasses; pass++ {
		for v := int32(0); v < int32(n); v++ {
			gain[v] = computeGain(v)
		}
		locked := make([]bool, n)
		type move struct {
			v    int32
			gain int64
		}
		var moves []move
		var cum, bestCum int64
		bestIdx := -1
		for step := 0; step < n; step++ {
			bestV := int32(-1)
			var bestG int64 = -(1 << 62)
			for v := int32(0); v < int32(n); v++ {
				if locked[v] || gain[v] <= -(1<<40) {
					continue
				}
				from := side[v]
				to := 1 - from
				if w[to]+int64(g.vwgt[v]) > maxW || w[from]-int64(g.vwgt[v]) < minW {
					continue
				}
				if gain[v] > bestG || (gain[v] == bestG && v < bestV) {
					bestV, bestG = v, gain[v]
				}
			}
			if bestV < 0 {
				break
			}
			from := side[bestV]
			to := int8(1 - from)
			side[bestV] = to
			w[from] -= int64(g.vwgt[bestV])
			w[to] += int64(g.vwgt[bestV])
			locked[bestV] = true
			cum += bestG
			moves = append(moves, move{bestV, bestG})
			if cum > bestCum {
				bestCum = cum
				bestIdx = len(moves) - 1
			}
			nbrs, wts := g.neighbors(bestV)
			for i, nb := range nbrs {
				if locked[nb] {
					continue
				}
				if side[nb] == to {
					gain[nb] -= 2 * int64(wts[i])
				} else {
					gain[nb] += 2 * int64(wts[i])
				}
			}
			if len(moves) > 2*n/3+16 {
				break
			}
		}
		for i := len(moves) - 1; i > bestIdx; i-- {
			v := moves[i].v
			from := side[v]
			to := int8(1 - from)
			side[v] = to
			w[from] -= int64(g.vwgt[v])
			w[to] += int64(g.vwgt[v])
		}
		if bestCum <= 0 && bestIdx < 0 {
			break
		}
	}
}

// TestFMRefineMatchesScan runs the heap-ordered fmRefine and the scan
// reference from the same random starting sides on every coarsening
// level of random graphs (so vertex weights exceed 1), across target
// fractions and imbalance bounds. Tight bounds leave sides pinned at
// their weight limits, which drives the skip-heavy-vertex and
// side-exhausted paths of the heap search.
func TestFMRefineMatchesScan(t *testing.T) {
	type input struct {
		name string
		g    *ugraph
	}
	var inputs []input
	for trial := 0; trial < 6; trial++ {
		n := 150 + 150*trial
		var ug *ugraph
		if trial%2 == 0 {
			ug = undirectedView(gen.ErdosRenyi(n, 1.5+float64(trial), int64(trial)))
		} else {
			g, err := gen.Community(gen.Config{
				Nodes: n, AvgOutDegree: 3, Communities: 2 + trial, InterFrac: 0.1,
				Seed: int64(trial),
			})
			if err != nil {
				t.Fatal(err)
			}
			ug = undirectedView(g)
		}
		for li, lv := range coarsen(ug, rand.New(rand.NewSource(int64(trial)))) {
			inputs = append(inputs, input{fmt.Sprintf("trial%d/level%d/n%d", trial, li, lv.g.numNodes()), lv.g})
		}
	}
	rng := rand.New(rand.NewSource(7))
	cases := 0
	for _, in := range inputs {
		total := in.g.totalWeight()
		for _, frac := range []float64{0.3, 0.5, 0.7} {
			for _, imb := range []float64{0.03, 0.08, 0.2} {
				target := int64(frac * float64(total))
				minW := int64(float64(target) * (1 - imb))
				maxW := int64(float64(target) * (1 + imb))
				start := make([]int8, in.g.numNodes())
				for v := range start {
					if rng.Float64() >= frac {
						start[v] = 1
					}
				}
				want := slices.Clone(start)
				fmRefineScan(in.g, want, minW, maxW)
				got := slices.Clone(start)
				fmRefine(in.g, got, minW, maxW)
				if !slices.Equal(got, want) {
					t.Fatalf("%s frac=%.1f imb=%.2f: heap refinement diverged from the scan", in.name, frac, imb)
				}
				cases++
			}
		}
	}
	t.Logf("%d graphs, %d cases", len(inputs), cases)
}
