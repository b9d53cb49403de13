// Package cluster implements the paper's coordinator-based share-nothing
// platform (§3.1, Figure 8): n machines each hold one shard of the
// pre-computation; a query is broadcast, every machine answers with ONE
// sparse vector, and the coordinator sums them. That single round trip
// per machine is the paper's headline communication property, and this
// package accounts the bytes of every response so the communication-cost
// experiments (Figures 13, 22, 28) measure encoded payload sizes: a TCP
// share is counted as the bytes received, an in-process share as the
// size its wire encoding would have (sparse.EncodedSizePacked), which is
// the same number.
//
// The serving layer is fully concurrent: the one-round protocol is
// embarrassingly parallel across queries, so the TCP transport
// multiplexes many in-flight queries over one connection (request-id
// demux, see mux.go), workers execute frames on a bounded goroutine pool
// (tcp.go), and the Coordinator is safe for concurrent Query/QuerySet
// calls with per-query context cancellation. An HTTP/JSON gateway
// (gateway.go) exposes the whole thing to ordinary web clients.
//
// Two transports are provided: in-process machines (shards in this
// process — used by benchmarks and the single-host gateway, zero
// network noise) and TCP machines (length-prefixed multiplexed frames
// over real sockets — used by the distributed example and integration
// tests). Both speak through the Machine interface, so the Coordinator
// is transport-agnostic. In-process machines also hand their share over
// as the sparse.Packed it was drained into (packedMachine), so they skip
// the encode and decode only a wire needs.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/graph"
	"exactppr/internal/sparse"
)

// Machine answers PPV queries with this machine's additive share, in
// the sparse wire encoding. Implementations must be safe for concurrent
// calls; a call must honor context cancellation at least on the
// transport level (an in-process machine may finish small computations
// instead of polling the context). The in-process machines also
// implement packedMachine, which the Coordinator and the TCP Server
// prefer: their QueryShare is an encode of that packed share.
type Machine interface {
	// QueryShare returns the machine's share of the PPV of u, encoded in
	// the sparse wire format, plus the machine-local compute time.
	QueryShare(ctx context.Context, u int32) (payload []byte, compute time.Duration, err error)
	// QuerySetShare is the preference-set variant (PPV linearity, §2):
	// the machine's share of the weighted-set PPV, still one vector.
	QuerySetShare(ctx context.Context, p core.Preference) (payload []byte, compute time.Duration, err error)
}

// Updater applies edge-delta batches to a machine's live store.
// Machines are free not to implement it (a read-only worker); the
// coordinator refuses to start an update unless every machine does.
type Updater interface {
	// ApplyUpdates applies one batch atomically w.r.t. this machine's
	// queries: every query share is computed against either the
	// pre-batch or the post-batch snapshot, never a mix.
	ApplyUpdates(ctx context.Context, d graph.Delta) (UpdateStats, error)
}

// UpdateStats reports one applied edge-delta batch.
type UpdateStats struct {
	// Inserted/Deleted are the edge operations that changed the graph.
	Inserted, Deleted int64
	// Recomputed is the number of store vectors recomputed — the
	// dirty-partition work a full rebuild would have multiplied.
	Recomputed int64
	// Wall is the end-to-end batch time observed by the caller.
	Wall time.Duration
}

// packedMachine is implemented by the in-process machines: they hand
// their share over as the sparse.Packed it was drained into, so the
// coordinator skips the encode and decode that only a wire needs, and a
// TCP Server encodes it straight into its response frame.
type packedMachine interface {
	queryPacked(ctx context.Context, u int32) (sparse.Packed, time.Duration, error)
	querySetPacked(ctx context.Context, p core.Preference) (sparse.Packed, time.Duration, error)
}

// ShardMachine is an in-process Machine over a core.Shard of either
// backend (an in-memory Store or a DiskStore).
type ShardMachine struct {
	Shard *core.Shard
}

// QueryShare implements Machine.
func (m *ShardMachine) QueryShare(ctx context.Context, u int32) ([]byte, time.Duration, error) {
	return encoded(m.queryPacked(ctx, u))
}

// QuerySetShare implements Machine for preference sets.
func (m *ShardMachine) QuerySetShare(ctx context.Context, p core.Preference) ([]byte, time.Duration, error) {
	return encoded(m.querySetPacked(ctx, p))
}

func (m *ShardMachine) queryPacked(ctx context.Context, u int32) (sparse.Packed, time.Duration, error) {
	return queryShard(ctx, m.Shard, u)
}

func (m *ShardMachine) querySetPacked(ctx context.Context, p core.Preference) (sparse.Packed, time.Duration, error) {
	return querySetShard(ctx, m.Shard, p)
}

// queryShard computes sh's share of the PPV of u and times it.
func queryShard(ctx context.Context, sh *core.Shard, u int32) (sparse.Packed, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return sparse.Packed{}, 0, err
	}
	start := time.Now()
	v, err := sh.QueryPacked(u)
	return v, time.Since(start), err
}

// querySetShard is queryShard for a preference set.
func querySetShard(ctx context.Context, sh *core.Shard, p core.Preference) (sparse.Packed, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return sparse.Packed{}, 0, err
	}
	start := time.Now()
	v, err := sh.QuerySetPacked(p)
	return v, time.Since(start), err
}

// encoded turns an in-process share into QueryShare's wire bytes.
func encoded(v sparse.Packed, compute time.Duration, err error) ([]byte, time.Duration, error) {
	if err != nil {
		return nil, 0, err
	}
	return sparse.EncodePacked(v), compute, nil
}

// shareReply is one machine's answer to one query.
type shareReply struct {
	share   sparse.Packed
	bytes   int64 // the share's wire size: the paper's communication cost
	compute time.Duration
	err     error
}

// ask asks m for its share of u's PPV, or of the preference set when
// set is non-nil. An in-process machine hands the share over packed and
// its bytes are the size its encoding would have; any other machine's
// payload is decoded, so both count the same bytes.
func ask(ctx context.Context, m Machine, u int32, set *core.Preference) shareReply {
	var r shareReply
	if pm, ok := m.(packedMachine); ok {
		if set == nil {
			r.share, r.compute, r.err = pm.queryPacked(ctx, u)
		} else {
			r.share, r.compute, r.err = pm.querySetPacked(ctx, *set)
		}
		r.bytes = int64(sparse.EncodedSizePacked(r.share))
		return r
	}
	var payload []byte
	if set == nil {
		payload, r.compute, r.err = m.QueryShare(ctx, u)
	} else {
		payload, r.compute, r.err = m.QuerySetShare(ctx, *set)
	}
	if r.err != nil {
		return r
	}
	if r.share, r.err = sparse.DecodePacked(payload); r.err != nil {
		r.err = fmt.Errorf("payload: %w", r.err)
	}
	r.bytes = int64(len(payload))
	return r
}

// QueryStats reports one distributed query.
type QueryStats struct {
	// Result is the exact PPV in packed columnar form — the coordinator
	// produces it by merging the machines' sorted share streams, so no
	// map is ever built on the serving path. Call Result.Unpack() for a
	// mutable map Vector.
	Result sparse.Packed
	// BytesReceived is the total encoded size of the shares — the
	// paper's communication-cost metric: the payload bytes received from
	// TCP machines, the encoded size of in-process shares.
	BytesReceived int64
	// MachineTime holds each machine's compute time; the paper reports
	// the maximum as the query runtime (§6.2.2).
	MachineTime []time.Duration
	// Wall is the coordinator's end-to-end time (fan-out + sum).
	Wall time.Duration
}

// MaxMachineTime returns the slowest machine's compute time.
func (qs *QueryStats) MaxMachineTime() time.Duration {
	var m time.Duration
	for _, d := range qs.MachineTime {
		if d > m {
			m = d
		}
	}
	return m
}

// Coordinator fans a query out to all machines once and sums the shares.
// It holds no per-query state, so any number of goroutines may call
// Query/QuerySet concurrently; throughput then scales with worker-side
// parallelism because the TCP transport multiplexes in-flight queries.
type Coordinator struct {
	machines []Machine
	// Timeout, when non-zero, bounds every query that arrives without
	// its own deadline. Zero means no coordinator-imposed deadline.
	Timeout time.Duration
}

// NewCoordinator returns a coordinator over the given machines.
func NewCoordinator(machines ...Machine) (*Coordinator, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("cluster: no machines")
	}
	return &Coordinator{machines: machines}, nil
}

// NumMachines returns the cluster size.
func (c *Coordinator) NumMachines() int { return len(c.machines) }

// SupportsUpdates reports whether every machine accepts edge-delta
// batches — the condition ApplyUpdates enforces. The gateway uses it to
// answer 501 for read-only clusters instead of tearing one mid-fan-out.
// Machines exposing their own probe (TCP transports send a no-op delta
// so the answer reflects the remote worker's -updates configuration,
// not just the client stub's method set) are asked; for in-process
// machines the interface check is exact.
func (c *Coordinator) SupportsUpdates() bool {
	for _, m := range c.machines {
		if probe, ok := m.(interface{ SupportsUpdates() bool }); ok {
			if !probe.SupportsUpdates() {
				return false
			}
			continue
		}
		if _, ok := m.(Updater); !ok {
			return false
		}
	}
	return true
}

// Query runs one exact PPV query: one request to each machine, one vector
// back from each, summed locally. Machines are called concurrently.
func (c *Coordinator) Query(u int32) (*QueryStats, error) {
	return c.QueryCtx(context.Background(), u)
}

// QueryCtx is Query with per-query cancellation: when ctx is done, the
// fan-out is abandoned (in-flight worker calls are cancelled) and the
// context error is returned.
func (c *Coordinator) QueryCtx(ctx context.Context, u int32) (*QueryStats, error) {
	return c.fanOut(ctx, u, nil)
}

// QuerySet runs the one-round protocol for a preference node set: each
// machine folds its weighted-set share, the coordinator sums. Exactness
// follows from PPV linearity plus the shard decomposition.
func (c *Coordinator) QuerySet(p core.Preference) (*QueryStats, error) {
	return c.QuerySetCtx(context.Background(), p)
}

// QuerySetCtx is QuerySet with per-query cancellation.
func (c *Coordinator) QuerySetCtx(ctx context.Context, p core.Preference) (*QueryStats, error) {
	return c.fanOut(ctx, 0, &p)
}

// fanOut implements the one-round protocol: ask every machine once,
// concurrently, and sum the shares. Machine 0 runs on the caller's
// goroutine, whose stack has already grown, so only machines 1..n−1
// get a goroutine each and a one-machine cluster starts none. The first
// failure cancels the remaining calls and is reported with its machine
// index, so a worker dying mid-flight surfaces as one clean error
// instead of a hang.
func (c *Coordinator) fanOut(ctx context.Context, u int32, set *core.Preference) (*QueryStats, error) {
	start := time.Now()
	if c.Timeout > 0 {
		if _, hasDeadline := ctx.Deadline(); !hasDeadline {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.Timeout)
			defer cancel()
		}
	}
	replies := make([]shareReply, len(c.machines))
	if len(c.machines) == 1 {
		replies[0] = ask(ctx, c.machines[0], u, set)
		return sum(replies, start)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	run := func(i int) {
		replies[i] = ask(ctx, c.machines[i], u, set)
		if replies[i].err != nil {
			cancel() // release the other machines early
		}
	}
	var wg sync.WaitGroup
	wg.Add(len(c.machines) - 1)
	for i := 1; i < len(c.machines); i++ {
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	run(0)
	wg.Wait()
	return sum(replies, start)
}

// sum is the coordinator's "sum the shares": the k sorted share streams
// merge in one pass — no maps, no per-entry hashing, however many
// machines answered. A failed reply fails the query instead; the most
// informative error wins, so a machine failure beats the context
// cancellation it triggered on its siblings.
func sum(replies []shareReply, start time.Time) (*QueryStats, error) {
	var firstErr error
	for i, rp := range replies {
		if rp.err != nil {
			err := fmt.Errorf("cluster: machine %d: %w", i, rp.err)
			if firstErr == nil || isCancel(firstErr) && !isCancel(err) {
				firstErr = err
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	stats := &QueryStats{MachineTime: make([]time.Duration, len(replies))}
	parts := make([]sparse.Packed, len(replies))
	for i, rp := range replies {
		stats.BytesReceived += rp.bytes
		stats.MachineTime[i] = rp.compute
		parts[i] = rp.share
	}
	stats.Result = sparse.MergePacked(parts)
	stats.Wall = time.Since(start)
	return stats, nil
}

// ApplyUpdates fans an edge-delta batch out to every machine, which
// applies it to its own copy of the store (workers each hold the full
// pre-computation and serve one shard slice of it). All machines must
// implement Updater or the call is refused before anything is sent.
//
// Consistency: each machine swaps in its post-batch snapshot
// atomically, but the swaps are not coordinated across machines — a
// query overlapping ApplyUpdates may sum pre-batch shares from one
// machine with post-batch shares from another. Callers needing
// cross-machine batch atomicity must quiesce queries around the call;
// updates applied while no queries overlap are always exact. A partial
// failure is reported as an error and may leave machines on different
// batches — retry the batch (deltas are effective-filtered, so replays
// are idempotent) or rebuild.
func (c *Coordinator) ApplyUpdates(ctx context.Context, d graph.Delta) (UpdateStats, error) {
	start := time.Now()
	updaters := make([]Updater, len(c.machines))
	for i, m := range c.machines {
		u, ok := m.(Updater)
		if !ok {
			return UpdateStats{}, fmt.Errorf("cluster: machine %d does not support updates", i)
		}
		updaters[i] = u
	}
	type reply struct {
		stats UpdateStats
		err   error
	}
	replies := make([]reply, len(updaters))
	var wg sync.WaitGroup
	wg.Add(len(updaters))
	for i, u := range updaters {
		go func(i int, u Updater) {
			defer wg.Done()
			stats, err := u.ApplyUpdates(ctx, d)
			replies[i] = reply{stats, err}
		}(i, u)
	}
	wg.Wait()
	var out UpdateStats
	for i, rp := range replies {
		if rp.err != nil {
			return UpdateStats{}, fmt.Errorf("cluster: machine %d update: %w (cluster may be torn — retry the batch)", i, rp.err)
		}
		if i == 0 {
			out = rp.stats
		} else if rp.stats.Recomputed != out.Recomputed {
			return UpdateStats{}, fmt.Errorf("cluster: machines disagree on recompute (%d vs %d) — replicas have diverged",
				out.Recomputed, rp.stats.Recomputed)
		}
	}
	out.Wall = time.Since(start)
	return out, nil
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// QuerySequential runs the same one-round protocol but calls machines one
// after another. The result and byte accounting are identical to Query;
// per-machine compute times are unbiased because machines never compete
// for host cores. Experiments use MaxMachineTime() of a sequential run as
// the distributed query runtime (the paper reports "the maximum runtime
// across all machines", §6.2.2), which keeps the numbers meaningful even
// when the simulation host has fewer cores than simulated machines.
func (c *Coordinator) QuerySequential(u int32) (*QueryStats, error) {
	start := time.Now()
	replies := make([]shareReply, len(c.machines))
	for i, m := range c.machines {
		if replies[i] = ask(context.Background(), m, u, nil); replies[i].err != nil {
			break
		}
	}
	return sum(replies, start)
}

// NewLocalCluster shards a store across n in-process machines and returns
// the coordinator — the standard benchmark setup.
func NewLocalCluster(s *core.Store, n int) (*Coordinator, error) {
	shards, err := core.Split(s, n)
	if err != nil {
		return nil, err
	}
	machines := make([]Machine, n)
	for i, sh := range shards {
		machines[i] = &ShardMachine{Shard: sh}
	}
	return NewCoordinator(machines...)
}
