package cluster

import (
	"context"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/sparse"
)

// LocalMachine is ShardMachine under another field name: an in-process
// Machine over a core.Shard, kept for callers that build it as
// LocalMachine{Backend: shard}.
type LocalMachine struct {
	Backend *core.Shard
}

// QueryShare implements Machine.
func (m *LocalMachine) QueryShare(ctx context.Context, u int32) ([]byte, time.Duration, error) {
	return encoded(m.queryPacked(ctx, u))
}

// QuerySetShare implements Machine for preference sets.
func (m *LocalMachine) QuerySetShare(ctx context.Context, p core.Preference) ([]byte, time.Duration, error) {
	return encoded(m.querySetPacked(ctx, p))
}

func (m *LocalMachine) queryPacked(ctx context.Context, u int32) (sparse.Packed, time.Duration, error) {
	return queryShard(ctx, m.Backend, u)
}

func (m *LocalMachine) querySetPacked(ctx context.Context, p core.Preference) (sparse.Packed, time.Duration, error) {
	return querySetShard(ctx, m.Backend, p)
}

// DiskCluster is a Coordinator over in-process disk shards: the
// single-host serving setup for pre-computations larger than memory.
// All shards share the store's memory map and coalescing cache, so
// concurrent HTTP traffic through a gateway exercises the zero-copy
// path end to end. Its DiskStats method feeds the gateway's /stats.
type DiskCluster struct {
	*Coordinator
	ds *core.DiskStore
}

// NewDiskLocalCluster splits a disk store across n in-process machines
// behind a coordinator.
func NewDiskLocalCluster(ds *core.DiskStore, n int) (*DiskCluster, error) {
	shards, err := core.SplitDisk(ds, n)
	if err != nil {
		return nil, err
	}
	machines := make([]Machine, n)
	for i, sh := range shards {
		machines[i] = &ShardMachine{Shard: sh}
	}
	coord, err := NewCoordinator(machines...)
	if err != nil {
		return nil, err
	}
	return &DiskCluster{Coordinator: coord, ds: ds}, nil
}

// DiskStats exposes the underlying store's serving counters (cache
// hits/misses, coalesced reads, mmap vs fallback) for /stats.
func (c *DiskCluster) DiskStats() core.DiskStats { return c.ds.Stats() }

// Store returns the shared disk store (e.g. to Close it on shutdown).
func (c *DiskCluster) Store() *core.DiskStore { return c.ds }
