package core

import (
	"fmt"

	"exactppr/internal/hierarchy"
	"exactppr/internal/sparse"
)

// The query fold. Every serving path — the in-memory Store, the
// disk-resident DiskStore, and a Shard over either — answers with the
// identity of the package comment,
//
//	r_u = final(u) + Σ_{h ∈ Path(u)} [ S_u(h)/α · P_h  +  S_u(h)·x_h ],
//
// written once, in fold, over a source that supplies one backend's
// vectors. Every source yields u's hubs in the same order — Path(u)
// root→home, then node.Hubs order — so the floating-point sums, and
// with them the answers, are bit-identical across backends.

// source is one backend of the fold.
type source interface {
	tree() *hierarchy.Hierarchy
	alpha() float64
	// hubWeights returns u's plan row: the pairs (h, s_u(h)) for the
	// hubs h on Path(u), in fold order; a shard skips the hubs it does
	// not own. A source may leave out hubs whose weight is zero, but
	// never h == u: the fold applies the −α self-adjustment to that
	// entry even when s_u(u) is zero.
	hubWeights(u int32) (planRow, error)
	// partial returns hub h's adjusted partial vector P_h.
	partial(h int32) (sparse.Packed, error)
	// leaf returns non-hub u's leaf-level local PPV.
	leaf(u int32) (sparse.Packed, error)
	// vectorBytes is the stored size of node v's vectors: partial plus
	// skeleton for a hub, the leaf PPV otherwise.
	vectorBytes(v int32) int64
	// acquire and release bracket a query: the disk store's lifecycle
	// lock, a no-op in memory.
	acquire() error
	release()
}

// fold adds w times (sh's share of) u's exact PPV to acc. The caller
// holds the source's lifecycle lock.
func fold(src source, acc *sparse.Accumulator, u int32, w float64, sh *Shard) error {
	h := src.tree()
	if u < 0 || int(u) >= h.G.NumNodes() {
		return fmt.Errorf("core: query node %d out of range", u)
	}
	row, err := src.hubWeights(u)
	if err != nil {
		return err
	}
	alpha := src.alpha()
	for i, hub := range row.hubs {
		su := row.s[i]
		if hub == u {
			su -= alpha // S_u(h) = s_u(h) − α·f_u(h)
		}
		if su == 0 || !sh.owns(hub) {
			continue
		}
		p, err := src.partial(hub)
		if err != nil {
			return err
		}
		acc.AddPacked(p, w*su/alpha)
		acc.Add(hub, w*su)
	}
	if !sh.owns(u) {
		return nil
	}
	// The recursion's base case, owned by whoever stores it: the leaf
	// PPV of a non-hub u, or hub u's own partial p_u = P_u + α·x_u.
	if !h.IsHub(u) {
		l, err := src.leaf(u)
		if err != nil {
			return err
		}
		acc.AddPacked(l, w)
		return nil
	}
	p, err := src.partial(u)
	if err != nil {
		return err
	}
	acc.AddPacked(p, w)
	acc.Add(u, w*alpha)
	return nil
}

// drain folds (sh's share of) an exact PPV into a pooled accumulator
// under the source's lifecycle lock and returns out's drain of it: the
// PPV of u when nodes is nil, else Σ_i w[i]·r_{nodes[i]}. Every query
// method is a call to drain. (A single query passes u rather than a
// one-element slice: callers in other packages inline the query
// methods, and there the slice would escape to the heap.)
func drain[T any](src source, sh *Shard, u int32, nodes []int32, w []float64, out func(*sparse.Accumulator) T) (T, error) {
	var zero T
	if err := src.acquire(); err != nil {
		return zero, err
	}
	defer src.release()
	acc := sparse.AcquireAccumulator(src.tree().G.NumNodes())
	defer acc.Release()
	if nodes == nil {
		if err := fold(src, acc, u, 1, sh); err != nil {
			return zero, err
		}
	}
	for i, v := range nodes {
		if err := fold(src, acc, v, w[i], sh); err != nil {
			return zero, err
		}
	}
	return out(acc), nil
}

// drainSet is drain over a preference set's normalized weights.
func drainSet[T any](src source, sh *Shard, p Preference, out func(*sparse.Accumulator) T) (T, error) {
	w, err := p.normalized(src.tree().G.NumNodes())
	if err != nil {
		var zero T
		return zero, err
	}
	return drain(src, sh, 0, p.Nodes, w, out)
}

// The drains the query methods use.
var (
	toVector = (*sparse.Accumulator).Vector
	toPacked = (*sparse.Accumulator).Packed
)
