package hierarchy

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"exactppr/internal/graph"
)

// assertSameTree checks that got is want node for node: IDs, levels,
// members, hubs, parent and children, plus every vertex's home and hub
// level.
func assertSameTree(t *testing.T, got, want *Hierarchy) {
	t.Helper()
	if len(got.Nodes()) != len(want.Nodes()) {
		t.Fatalf("%d nodes, want %d", len(got.Nodes()), len(want.Nodes()))
	}
	id := func(n *Node) int {
		if n == nil {
			return -1
		}
		return n.ID
	}
	ids := func(ns []*Node) []int {
		var out []int
		for _, n := range ns {
			out = append(out, n.ID)
		}
		return out
	}
	for i, w := range want.Nodes() {
		g := got.Nodes()[i]
		if g.ID != w.ID || g.Level != w.Level || id(g.Parent) != id(w.Parent) ||
			!slices.Equal(g.Members, w.Members) || !slices.Equal(g.Hubs, w.Hubs) ||
			!slices.Equal(ids(g.Children), ids(w.Children)) {
			t.Fatalf("node %d differs:\n got %+v\nwant %+v", i, *g, *w)
		}
	}
	for u := range int32(want.G.NumNodes()) {
		if got.Home(u).ID != want.Home(u).ID || got.HubLevel(u) != want.HubLevel(u) {
			t.Fatalf("vertex %d: home %d level %d, want home %d level %d",
				u, got.Home(u).ID, got.HubLevel(u), want.Home(u).ID, want.HubLevel(u))
		}
	}
	if got.Root != got.Nodes()[0] {
		t.Fatal("root is not the first node")
	}
}

// TestTreeRoundTrip: FromTree(h.Tree()) rebuilds h exactly — for a
// fresh tree and after every batch of edge updates, whose promotions
// and unlinks leave ID gaps and childless nodes with hubs — and the
// rebuilt tree absorbs the next batch exactly as the original does.
func TestTreeRoundTrip(t *testing.T) {
	fresh, err := Build(email(t), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := FromTree(fresh.G, fresh.Opts, fresh.Tree())
	if err != nil {
		t.Fatal(err)
	}
	assertSameTree(t, rebuilt, fresh)
	if got, want := fingerprint(rebuilt), fingerprint(fresh); got != want {
		t.Fatalf("fingerprint %#x, want %#x", got, want)
	}
	for _, n := range rebuilt.Nodes() {
		if n.Sub != nil {
			t.Fatal("FromTree extracted a virtual subgraph")
		}
	}

	// Two copies of one graph: the original tree's and the rebuilt
	// tree's, each advanced by the same batches.
	rng := rand.New(rand.NewSource(5))
	g := testCommunity(t, 7)
	h, err := Build(g, Options{Seed: 11, MinSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	g2 := copyGraph(g)
	n := int32(g.NumNodes())
	gaps, hubLeaves := false, false
	for batch := range 25 {
		r, err := FromTree(g2, h.Opts, h.Tree())
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		assertSameTree(t, r, h)
		var d graph.Delta
		for range 6 {
			if u, v := rng.Int31n(n), rng.Int31n(n); u != v && !g.HasEdge(u, v) {
				d.Insert = append(d.Insert, [2]int32{u, v})
			}
		}
		want, err := h.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Promoted, want.Promoted) || !reflect.DeepEqual(nodeIDs(got.Dirty), nodeIDs(want.Dirty)) {
			t.Fatalf("batch %d: update of the rebuilt tree differs", batch)
		}
		for _, gr := range []*graph.Graph{g, g2} {
			if _, _, err := gr.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
		}
		h = want.H
		for i, node := range h.Nodes() {
			gaps = gaps || node.ID != i
			hubLeaves = hubLeaves || node.IsLeaf() && len(node.Hubs) > 0
		}
	}
	if !gaps || !hubLeaves {
		t.Fatalf("ID gaps %v, childless nodes with hubs %v: the batches did not exercise both", gaps, hubLeaves)
	}
}

func nodeIDs(ns []*Node) []int {
	out := []int{}
	for _, n := range ns {
		out = append(out, n.ID)
	}
	return out
}

func copyGraph(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes())
	for u := range int32(g.NumNodes()) {
		for _, v := range g.Out(u) {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// TestFromTreeRejects: each cheap structural check refuses a tree that
// breaks it.
func TestFromTreeRejects(t *testing.T) {
	// 0-1-2, 3-4: the root holds hub 2; two leaves below it.
	g := graph.FromAdjacency([][]int32{{1}, {2}, {3}, {4}, {}})
	good := Tree{
		IDs:     []int32{0, 1, 2},
		Parents: []int32{-1, 0, 0},
		Home:    []int32{1, 1, 0, 2, 2},
		Hub:     []bool{false, false, true, false, false},
	}
	if _, err := FromTree(g, Options{}, good); err != nil {
		t.Fatalf("good tree: %v", err)
	}
	chain := Tree{Home: make([]int32, 5), Hub: make([]bool, 5)}
	for i := range MaxDepth + 1 {
		chain.IDs = append(chain.IDs, int32(i))
		chain.Parents = append(chain.Parents, int32(i-1))
	}
	for i := range chain.Home {
		chain.Home[i] = MaxDepth
	}
	for _, tc := range []struct {
		name, want string
		edit       func(t *Tree)
	}{
		{"no nodes", "no nodes", func(t *Tree) { t.IDs, t.Parents = nil, nil }},
		{"short homes", "homes", func(t *Tree) { t.Home = t.Home[:4] }},
		{"root has a parent", "not the root", func(t *Tree) { t.Parents[0] = 1 }},
		{"second root", "does not come before", func(t *Tree) { t.Parents[2] = -1 }},
		{"parent after child", "does not come before", func(t *Tree) { t.Parents[1] = 2 }},
		{"IDs not increasing", "does not increase", func(t *Tree) { t.IDs[2] = 1 }},
		{"negative ID", "does not increase", func(t *Tree) { t.IDs[0] = -1 }},
		{"home out of range", "out of range", func(t *Tree) { t.Home[3] = 3 }},
		{"node without members", "no members", func(t *Tree) { t.Home[3], t.Home[4] = 1, 1 }},
		{"non-hub at an inner node", "inner node", func(t *Tree) { t.Hub[2] = false }},
		{"too deep", "deeper than", func(t *Tree) { *t = chain }},
	} {
		tr := Tree{
			IDs:     slices.Clone(good.IDs),
			Parents: slices.Clone(good.Parents),
			Home:    slices.Clone(good.Home),
			Hub:     slices.Clone(good.Hub),
		}
		tc.edit(&tr)
		if _, err := FromTree(g, Options{}, tr); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
