package hierarchy

import (
	"fmt"

	"exactppr/internal/graph"
)

// Tree is the shape of a hierarchy as flat arrays — the form a store
// file keeps it in, so that serving rebuilds the tree instead of
// re-running the partitioner. Everything else about a node follows from
// these arrays: its Level from its parent, its Children from the nodes
// naming it as parent (in node order), its Hubs from the hub vertices
// homed at it, and its Members from the vertices homed anywhere in its
// subtree.
type Tree struct {
	// IDs holds each node's ID, in Nodes() order. IDs are kept as they
	// are: after ApplyDelta unlinks nodes they have gaps, and Split's
	// round-robin and Update.Dirty's order both read them.
	IDs []int32
	// Parents holds each node's parent as an index into IDs, -1 for the
	// root.
	Parents []int32
	// Home holds each vertex's home node as an index into IDs.
	Home []int32
	// Hub reports whether each vertex is a hub of its home node. It is
	// explicit because a node can be childless and still have hubs (an
	// unlink can leave one), so "homed at an inner node" does not decide
	// it.
	Hub []bool
}

// Tree returns h's shape as flat arrays; FromTree inverts it.
func (h *Hierarchy) Tree() Tree {
	index := make(map[*Node]int32, len(h.nodes))
	for i, n := range h.nodes {
		index[n] = int32(i)
	}
	t := Tree{
		IDs:     make([]int32, len(h.nodes)),
		Parents: make([]int32, len(h.nodes)),
		Home:    make([]int32, len(h.home)),
		Hub:     make([]bool, len(h.home)),
	}
	for i, n := range h.nodes {
		t.IDs[i] = int32(n.ID)
		t.Parents[i] = -1
		if n.Parent != nil {
			t.Parents[i] = index[n.Parent]
		}
	}
	for v, n := range h.home {
		t.Home[v] = index[n]
		t.Hub[v] = h.hubLevel[v] >= 0
	}
	return t
}

// FromTree rebuilds the hierarchy of graph g whose shape is t, built
// with options opts. It checks the structure cheaply: the first node is
// the root, every other node's parent comes before it, IDs increase,
// every index is in range, no node is deeper than MaxDepth, every node
// has members, and no non-hub vertex is homed at an inner node. It does
// not check the separator property; Validate does, at the cost of a
// pass over every subgraph. The nodes' virtual subgraphs are not
// extracted: Sub is nil until something that computes vectors needs it
// (core's Precompute, Update.RefreshSubgraphs).
func FromTree(g *graph.Graph, opts Options, t Tree) (*Hierarchy, error) {
	n, k := g.NumNodes(), len(t.IDs)
	switch {
	case n == 0:
		return nil, fmt.Errorf("hierarchy: empty graph")
	case k == 0:
		return nil, fmt.Errorf("hierarchy: tree has no nodes")
	case len(t.Parents) != k:
		return nil, fmt.Errorf("hierarchy: %d node IDs but %d parents", k, len(t.Parents))
	case len(t.Home) != n || len(t.Hub) != n:
		return nil, fmt.Errorf("hierarchy: %d homes and %d hub flags for %d vertices", len(t.Home), len(t.Hub), n)
	}
	h := &Hierarchy{
		G:        g,
		Opts:     opts,
		nodes:    make([]*Node, k),
		home:     make([]*Node, n),
		hubLevel: make([]int32, n),
	}
	nodes := make([]Node, k)
	for i := range nodes {
		c := &nodes[i]
		c.ID = int(t.IDs[i])
		if i > 0 && t.IDs[i] <= t.IDs[i-1] || t.IDs[i] < 0 {
			return nil, fmt.Errorf("hierarchy: node %d: ID %d does not increase", i, t.IDs[i])
		}
		switch p := t.Parents[i]; {
		case i == 0 && p != -1:
			return nil, fmt.Errorf("hierarchy: the first node is not the root (parent %d)", p)
		case i == 0:
		case p < 0 || int(p) >= i:
			return nil, fmt.Errorf("hierarchy: node %d: parent %d does not come before it", i, p)
		case nodes[p].Level+1 >= MaxDepth:
			return nil, fmt.Errorf("hierarchy: node %d is deeper than %d levels", i, MaxDepth)
		default:
			c.Parent = &nodes[p]
			c.Level = c.Parent.Level + 1
			c.Parent.Children = append(c.Parent.Children, c)
		}
		h.nodes[i] = c
	}
	h.Root = h.nodes[0]

	// Count each node's members and hubs, then fill both from one flat
	// array each, vertices ascending, so every list comes out sorted.
	members, hubs := make([]int, k+1), make([]int, k+1)
	for v, i := range t.Home {
		if i < 0 || int(i) >= k {
			return nil, fmt.Errorf("hierarchy: vertex %d: home %d out of range", v, i)
		}
		home := h.nodes[i]
		h.home[v] = home
		h.hubLevel[v] = -1
		if t.Hub[v] {
			h.hubLevel[v] = int32(home.Level)
			hubs[i+1]++
		} else if !home.IsLeaf() {
			return nil, fmt.Errorf("hierarchy: non-hub vertex %d homed at inner node %d", v, home.ID)
		}
		for j := i; j >= 0; j = t.Parents[j] {
			members[j+1]++
		}
	}
	for i := range k {
		if members[i+1] == 0 {
			return nil, fmt.Errorf("hierarchy: node %d has no members", t.IDs[i])
		}
		members[i+1] += members[i]
		hubs[i+1] += hubs[i]
	}
	memberIDs, hubIDs := make([]int32, members[k]), make([]int32, hubs[k])
	for v, i := range t.Home {
		if t.Hub[v] {
			hubIDs[hubs[i]] = int32(v)
			hubs[i]++
		}
		for j := i; j >= 0; j = t.Parents[j] {
			memberIDs[members[j]] = int32(v)
			members[j]++
		}
	}
	// members[i] and hubs[i] now hold node i's END offsets.
	start, hubStart := 0, 0
	for i, c := range h.nodes {
		c.Members = memberIDs[start:members[i]:members[i]]
		if hubs[i] > hubStart {
			c.Hubs = hubIDs[hubStart:hubs[i]:hubs[i]]
		}
		start, hubStart = members[i], hubs[i]
	}
	return h, nil
}
