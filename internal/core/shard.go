package core

import (
	"fmt"

	"exactppr/internal/sparse"
)

// Shard is the slice of a pre-computation — an in-memory Store or a
// disk-resident DiskStore — assigned to one machine under the paper's
// hub-distributed scheme (§4.4): every subgraph's hub set is divided
// evenly across the s machines, and the leaf-level vectors are likewise
// spread evenly. Each machine answers a query with ONE sparse vector; the
// coordinator sums the vectors — the shard outputs form an exact additive
// decomposition of the PPV (TestShardsSumToQuery). Both backends split
// identically, so memory and disk shares are interchangeable bit for bit.
//
// All shards of one DiskStore share its file, mapping, and cache;
// closing the store invalidates every shard.
type Shard struct {
	Index, Total int
	src          source
	// owner[v] is the machine holding node v's vectors: its partial and
	// skeleton when v is a hub, its leaf PPV otherwise. One array serves
	// every shard of a split.
	owner        []int32
	hubs, leaves int
}

// DiskShard is a Shard over a DiskStore.
type DiskShard = Shard

// Split divides the store across n machines: each subgraph's hub list is
// dealt round-robin with a GLOBAL cursor (so machines stay balanced even
// though most tree nodes contribute only one or two hubs), and non-hub
// node u's leaf vector goes to machine u mod n — the paper's even
// division of hub sets and leaf subgraphs (§4.4).
func Split(s *Store, n int) ([]*Shard, error) { return split(s, n) }

// SplitDisk divides the disk store across n machines exactly as Split
// divides the equivalent in-memory store.
func SplitDisk(ds *DiskStore, n int) ([]*DiskShard, error) { return split(ds, n) }

func split(src source, n int) ([]*Shard, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: cannot split into %d shards", n)
	}
	h := src.tree()
	owner := make([]int32, h.G.NumNodes())
	shards := make([]*Shard, n)
	for i := range shards {
		shards[i] = &Shard{Index: i, Total: n, src: src, owner: owner}
	}
	cursor := 0
	for _, node := range h.Nodes() {
		for _, hub := range node.Hubs {
			owner[hub] = int32(cursor % n)
			shards[cursor%n].hubs++
			cursor++
		}
	}
	for u := range owner {
		if !h.IsHub(int32(u)) {
			owner[u] = int32(u % n)
			shards[u%n].leaves++
		}
	}
	return shards, nil
}

// owns reports whether the shard holds node v's vectors; a nil shard
// stands for the whole store and owns everything.
func (sh *Shard) owns(v int32) bool { return sh == nil || sh.owner[v] == int32(sh.Index) }

// QueryPacked computes this machine's additive share of the PPV of u —
// Algorithm 1 of the paper (with the skeleton hub-entry term included so
// the shares stay exact; see the package comment) — in the columnar
// form workers encode straight onto the wire.
func (sh *Shard) QueryPacked(u int32) (sparse.Packed, error) {
	return drain(sh.src, sh, u, nil, nil, toPacked)
}

// QuerySetPacked is the shard-side preference-set fold: the weighted
// combination of the shard's per-node shares. Summing every shard's
// output yields exactly the store's QuerySet, still in one round.
func (sh *Shard) QuerySetPacked(p Preference) (sparse.Packed, error) {
	return drainSet(sh.src, sh, p, toPacked)
}

// QueryWork returns the number of sparse-vector entries this shard folds
// to answer a query for u, plus one skeleton lookup per owned hub on
// Path(u) — a deterministic proxy for per-machine compute that is
// immune to scheduling noise, and the same for both backends. The
// paper's load-balance claim (§4.4) is that the MAX of this quantity
// across machines shrinks as 1/machines; see the fig10 experiment.
func (sh *Shard) QueryWork(u int32) (int64, error) {
	src := sh.src
	h := src.tree()
	if u < 0 || int(u) >= h.G.NumNodes() {
		return 0, fmt.Errorf("core: query node %d out of range", u)
	}
	if err := src.acquire(); err != nil {
		return 0, err
	}
	defer src.release()
	var work int64
	for _, node := range h.Path(u) {
		for _, hub := range node.Hubs {
			if sh.owns(hub) {
				work++ // skeleton lookup
			}
		}
	}
	row, err := src.hubWeights(u)
	if err != nil {
		return 0, err
	}
	for i, hub := range row.hubs {
		if row.s[i] == 0 || !sh.owns(hub) {
			continue
		}
		p, err := src.partial(hub)
		if err != nil {
			return 0, err
		}
		work += int64(p.Len()) + 1
	}
	if !sh.owns(u) {
		return work, nil
	}
	if !h.IsHub(u) {
		l, err := src.leaf(u)
		return work + int64(l.Len()), err
	}
	p, err := src.partial(u)
	return work + int64(p.Len()) + 1, err
}

// HubCount returns the number of hubs assigned to the shard.
func (sh *Shard) HubCount() int { return sh.hubs }

// LeafCount returns the number of leaf vectors assigned to the shard.
func (sh *Shard) LeafCount() int { return sh.leaves }

// SpaceBytes reports the stored size of the vectors THIS shard serves —
// the per-machine space metric of §6.2.3 (no redundancy across
// machines): encoded sizes in memory, payload bytes on disk.
func (sh *Shard) SpaceBytes() int64 {
	var total int64
	for v, m := range sh.owner {
		if m == int32(sh.Index) {
			total += sh.src.vectorBytes(int32(v))
		}
	}
	return total
}
