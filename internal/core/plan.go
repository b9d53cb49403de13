package core

import (
	"slices"

	"exactppr/internal/hierarchy"
	"exactppr/internal/sparse"
)

// Hub plans: the transposed skeleton index.
//
// The serving identity folds, for query node u, the term
// (S_u(h)/α)·P_h + S_u(h)·x_h for every hub h on Path(u), where
// S_u(h) = s_u(h) − α·f_u(h) comes from the skeleton section. Stored
// row-major (one vector per hub), answering that needs the ENTIRE
// skeleton vector of every path hub fetched from disk just to read one
// scalar — by far the dominant read traffic of a disk-resident query.
// The transpose stores, per query node u, exactly the non-zero
// (h, s_u(h)) pairs it will fold, so a disk query reads one small plan
// row plus the partial vectors it actually needs: zero skeleton
// payloads. Save writes the rows as the store file's fourth section;
// DiskStore folds them.
//
// Ordering is load-bearing: floating-point accumulation must visit hubs
// in exactly the order the in-memory fold does — Path(u) root→home,
// then node.Hubs order — or disk and in-memory answers stop being
// bit-identical. A path holds at most one tree node per level, so
// visiting hubs by (home level, index within node.Hubs) and appending
// each skeleton entry to its source's row leaves every row in fold
// order with no sort.

// planRow is one query node's hub-weight plan: parallel arrays of hub id
// and raw skeleton value s_u(h), in fold order (NOT sorted by id).
type planRow struct {
	hubs []int32
	s    []float64
}

// planTable holds every row in two flat arrays: row u is entries
// off[u] to off[u+1].
type planTable struct {
	off  []int
	hubs []int32
	s    []float64
}

func (t planTable) row(u int32) planRow {
	a, b := t.off[u], t.off[u+1]
	return planRow{t.hubs[a:b], t.s[a:b]}
}

// rows counts the non-empty rows.
func (t planTable) rows() int {
	n := 0
	for u := range len(t.off) - 1 {
		if t.off[u+1] > t.off[u] {
			n++
		}
	}
	return n
}

// buildHubPlans transposes the skeleton section into plan rows, counting
// each row's length in a first pass and filling the rows in a second.
// Each hub's own row is guaranteed to contain the hub itself (with value
// 0 when the stored skeleton lacks it, e.g. after aggressive truncation)
// because the fold applies the −α self-adjustment to that entry even
// when s_u(u) is absent.
func buildHubPlans(h *hierarchy.Hierarchy, skeleton map[int32]sparse.Packed) planTable {
	nodes := slices.Clone(h.Nodes())
	slices.SortStableFunc(nodes, func(a, b *hierarchy.Node) int { return a.Level - b.Level })
	// visit calls f(u, hub, s_u(hub)) for every plan entry in fold order.
	visit := func(f func(u, hub int32, s float64)) {
		for _, node := range nodes {
			for _, hub := range node.Hubs {
				self := false
				skeleton[hub].ForEach(func(u int32, s float64) {
					self = self || u == hub
					f(u, hub, s)
				})
				if !self {
					f(hub, hub, 0)
				}
			}
		}
	}
	n := h.G.NumNodes()
	t := planTable{off: make([]int, n+1)}
	visit(func(u, _ int32, _ float64) { t.off[u+1]++ })
	for u := range n {
		t.off[u+1] += t.off[u]
	}
	t.hubs = make([]int32, t.off[n])
	t.s = make([]float64, t.off[n])
	next := slices.Clone(t.off[:n])
	visit(func(u, hub int32, s float64) {
		t.hubs[next[u]], t.s[next[u]] = hub, s
		next[u]++
	})
	return t
}
