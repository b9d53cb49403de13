package core

import (
	"fmt"
	"slices"

	"exactppr/internal/hierarchy"
	"exactppr/internal/sparse"
)

// Hub plans: the transposed skeleton index.
//
// The serving identity folds, for query node u, the term
// (S_u(h)/α)·P_h + S_u(h)·x_h for every hub h on Path(u), where
// S_u(h) = s_u(h) − α·f_u(h) comes from hub h's skeleton vector. Stored
// row-major (one vector per hub), answering that needs the ENTIRE
// skeleton vector of every path hub just to read one scalar. The
// transpose stores, per query node u, exactly the non-zero (h, s_u(h))
// pairs it will fold, so a query's hub-weight work is proportional to
// its answer: one row, no per-hub lookups. The skeletons exist only in
// this form, in memory and on disk: Save writes the rows as the store
// file's plan section, Load reads them straight back into a table, and
// DiskStore folds them from the file.
//
// Ordering is load-bearing: floating-point accumulation must visit hubs
// in exactly the order of Path(u) root→home, then node.Hubs order — or
// disk and in-memory answers stop being bit-identical. A path holds at
// most one tree node per level, so visiting hubs by (home level, index
// within node.Hubs) and appending each skeleton entry to its source's
// row leaves every row in fold order with no sort.

// planRow is one query node's hub-weight plan: parallel arrays of hub id
// and raw skeleton value s_u(h), in fold order (NOT sorted by id).
type planRow struct {
	hubs []int32
	s    []float64
}

// planTable holds every row in two flat arrays: row u is entries
// off[u] to off[u+1]. Each hub's own row holds the hub itself, with
// value 0 when its skeleton lacks that entry (e.g. after aggressive
// truncation), because the fold applies the −α self-adjustment to it
// even when s_u(u) is absent; every other entry is a stored, non-zero
// skeleton entry. skelLen[h] counts hub h's stored entries. A table is
// immutable once built, so snapshots share it.
type planTable struct {
	off     []int
	hubs    []int32
	s       []float64
	skelLen []int32
}

// row returns u's plan row; a node with no entries gets the zero row,
// as from a DiskStore, which stores no record for it.
func (t planTable) row(u int32) planRow {
	a, b := t.off[u], t.off[u+1]
	if a == b {
		return planRow{}
	}
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

// entries counts the stored skeleton entries.
func (t planTable) entries() int64 {
	var n int64
	for _, c := range t.skelLen {
		n += int64(c)
	}
	return n
}

// buildHubPlans transposes skeleton vectors (one per hub of h) into
// plan rows.
func buildHubPlans(h *hierarchy.Hierarchy, skeleton map[int32]sparse.Packed) planTable {
	return planTable{}.rebuild(h, h.Nodes(), skeleton)
}

// rebuild returns the table of hierarchy h in which the hubs of nodes
// take their entries from skeleton (their freshly computed vectors) and
// every other hub keeps its entries from t. Row lengths are counted in
// a first pass and the rows filled in a second.
//
// Fresh entries go first in each row. That is fold order because the
// nodes an update recomputes are closed under ancestors (a dirty node's
// parent is dirty; see internal/hierarchy's dirty-set semantics), so
// on every Path(u) the fresh hubs sit above the kept ones; the kept
// entries keep their relative order from t.
func (t planTable) rebuild(h *hierarchy.Hierarchy, nodes []*hierarchy.Node, skeleton map[int32]sparse.Packed) planTable {
	nodes = slices.Clone(nodes)
	slices.SortStableFunc(nodes, func(a, b *hierarchy.Node) int { return a.Level - b.Level })
	n := h.G.NumNodes()
	fresh := make([]bool, n)
	for _, node := range nodes {
		for _, hub := range node.Hubs {
			fresh[hub] = true
		}
	}
	// visit calls f(u, hub, s_u(hub)) for every fresh entry in fold order.
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
	// keep calls f(u, i) for every entry i of t that stays.
	keep := func(f func(u int32, i int)) {
		for u := range len(t.off) - 1 {
			for i := t.off[u]; i < t.off[u+1]; i++ {
				if !fresh[t.hubs[i]] {
					f(int32(u), i)
				}
			}
		}
	}
	nt := planTable{off: make([]int, n+1)}
	visit(func(u, _ int32, _ float64) { nt.off[u+1]++ })
	keep(func(u int32, _ int) { nt.off[u+1]++ })
	for u := range n {
		nt.off[u+1] += nt.off[u]
	}
	nt.hubs = make([]int32, nt.off[n])
	nt.s = make([]float64, nt.off[n])
	next := slices.Clone(nt.off[:n])
	put := func(u, hub int32, s float64) {
		nt.hubs[next[u]], nt.s[next[u]] = hub, s
		next[u]++
	}
	visit(put)
	keep(func(u int32, i int) { put(u, t.hubs[i], t.s[i]) })
	nt.countSkeletons()
	return nt
}

// truncated returns the table without the stored entries of absolute
// value below min, plus the number dropped — Store.Truncate's filter. A
// hub's own entry stays, as 0, so the fold still applies its −α.
func (t planTable) truncated(min float64) (planTable, int) {
	small := func(x float64) bool { return x != 0 && x < min && x > -min }
	if !slices.ContainsFunc(t.s, small) {
		return t, 0
	}
	n := len(t.off) - 1
	nt := planTable{off: make([]int, n+1)}
	dropped := 0
	for u := range n {
		for i := t.off[u]; i < t.off[u+1]; i++ {
			hub, x := t.hubs[i], t.s[i]
			if small(x) {
				dropped++
				if hub != int32(u) {
					continue
				}
				x = 0
			}
			nt.hubs = append(nt.hubs, hub)
			nt.s = append(nt.s, x)
		}
		nt.off[u+1] = len(nt.hubs)
	}
	nt.countSkeletons()
	return nt, dropped
}

// countSkeletons fills skelLen from the table's non-zero entries.
func (t *planTable) countSkeletons() {
	t.skelLen = make([]int32, len(t.off)-1)
	for i, hub := range t.hubs {
		if t.s[i] != 0 {
			t.skelLen[hub]++
		}
	}
}

// rowChecker checks plan rows read from a store file against the
// file's tree. A loaded store folds its rows as they are instead of
// deriving them from skeleton vectors, so a corrupt row must fail the
// open, never fold silently wrong. It counts each hub's stored skeleton
// entries (skelLen) on the way.
type rowChecker struct {
	h *hierarchy.Hierarchy
	// rank[hub] is the hub's index within its home node's Hubs: with the
	// home level, its position in fold order.
	rank    []int32
	path    []*hierarchy.Node // the current row's Path, indexed by level
	skelLen []int32
	hubRows int // rows of hubs, each holding its own hub
}

func newRowChecker(h *hierarchy.Hierarchy) *rowChecker {
	n := h.G.NumNodes()
	rc := &rowChecker{h: h, rank: make([]int32, n), skelLen: make([]int32, n)}
	for _, node := range h.Nodes() {
		for i, hub := range node.Hubs {
			rc.rank[hub] = int32(i)
		}
	}
	return rc
}

// check verifies u's row: it is not empty, every hub is in range and on
// Path(u), fold rank (home level, then index within node.Hubs) strictly
// increases, and a hub's own row holds the hub.
func (rc *rowChecker) check(u int32, hubs []int32, s []float64) error {
	h := rc.h
	if len(hubs) == 0 {
		return fmt.Errorf("empty plan row (corrupt store?)")
	}
	home := h.Home(u)
	rc.path = slices.Grow(rc.path[:0], home.Level+1)[:home.Level+1]
	for node := home; node != nil; node = node.Parent {
		rc.path[node.Level] = node
	}
	n := int32(h.G.NumNodes())
	lastLevel, lastRank := -1, int32(-1)
	self := false
	for i, hub := range hubs {
		if hub < 0 || hub >= n {
			return fmt.Errorf("plan row references out-of-range hub %d (corrupt store?)", hub)
		}
		level := h.HubLevel(hub)
		if level < 0 || level >= len(rc.path) || rc.path[level] != h.Home(hub) {
			return fmt.Errorf("plan row references %d, which is not a hub on the node's path (corrupt store?)", hub)
		}
		if level < lastLevel || level == lastLevel && rc.rank[hub] <= lastRank {
			return fmt.Errorf("plan row is not in fold order at hub %d (corrupt store?)", hub)
		}
		lastLevel, lastRank = level, rc.rank[hub]
		self = self || hub == u
		if s[i] != 0 {
			rc.skelLen[hub]++
		}
	}
	if h.IsHub(u) {
		if !self {
			return fmt.Errorf("hub's plan row lacks its own entry (corrupt store?)")
		}
		rc.hubRows++
	}
	return nil
}

// done checks, after the last row, that every hub had a row.
func (rc *rowChecker) done() error {
	if hubs := rc.h.TotalHubs(); rc.hubRows != hubs {
		return fmt.Errorf("core: store has plan rows for %d of its %d hubs (corrupt store?)", rc.hubRows, hubs)
	}
	return nil
}
