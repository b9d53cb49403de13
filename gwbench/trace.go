package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"exactppr/internal/cluster"
	"exactppr/internal/core"
	"exactppr/internal/graph"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// span is one timed call into a layer. Spans of one op share Req. A
// span's children are the calls into the next inner layer for the same
// op; siblings marked Par with the same name ran concurrently inside the
// real call (the coordinator's machines), so only the slowest of them
// counts against the parent.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Par    bool          `json:"par,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, so the same replay can run with and without it.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) open(req, parent int, name string, par bool) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Par: par, Start: time.Since(t.t0)})
	return len(t.spans)
}

func (t *tracer) close(id int) {
	if id > 0 {
		t.spans[id-1].End = time.Since(t.t0)
	}
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus its serial children's durations and, for each name of
// concurrent children, the longest of them.
func selfTimes(spans []span) []time.Duration {
	serial := map[int]time.Duration{}
	par := map[int]map[string]time.Duration{}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if !s.Par {
			serial[s.Parent] += s.dur()
			continue
		}
		if par[s.Parent] == nil {
			par[s.Parent] = map[string]time.Duration{}
		}
		par[s.Parent][s.Name] = max(par[s.Parent][s.Name], s.dur())
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - serial[s.ID]
		for _, d := range par[s.ID] {
			out[i] -= d
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layers holds one in-process instance of every layer on the serving
// paths, all built from the store file the servers use.
type layers struct {
	store    *core.Store
	shards   []*core.Shard
	machines []cluster.Machine
	coord    *cluster.Coordinator
	gateway  http.Handler
	disk     *core.DiskStore
	dshards  []*core.DiskShard
	wire     []*cluster.Pool   // TCP shares
	local    []cluster.Machine // the same shares computed in process
	closers  []func()
	// Filled by the traced replay.
	bytes, straggler []float64
}

func (l *layers) close() {
	for _, f := range l.closers {
		f()
	}
}

// setupLayers times the offline build and the store opens in process, as
// pprprecomp and pprserve run them, and returns the layers over the
// store file plus the freshly built store for the update layer. disk
// says which shard split is on the workload's path.
func setupLayers(t *tracer, m map[string]float64, edges, storePath, scratch string, disk bool) (*layers, *core.Store, error) {
	root := t.open(0, 0, "setup.inprocess", false)
	defer t.close(root)
	timed := func(name string, f func() error) error {
		id := t.open(0, root, name, false)
		start := time.Now()
		err := f()
		m[name+"_s"] = time.Since(start).Seconds()
		t.close(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var (
		g     *graph.Graph
		h     *hierarchy.Hierarchy
		built *core.Store
		info  *core.PrecomputeInfo
		l     = &layers{}
		err   error
	)
	if err := timed("graph.load", func() error { g, err = graph.LoadEdgeListFile(edges); return err }); err != nil {
		return nil, nil, err
	}
	if err := timed("hierarchy.build", func() error { h, err = hierarchy.Build(g, hierarchy.Options{Fanout: 2, Seed: 1}); return err }); err != nil {
		return nil, nil, err
	}
	if err := timed("ppr.precompute", func() error { built, info, err = core.PrecomputeWithInfo(h, ppr.Defaults(), 0); return err }); err != nil {
		return nil, nil, err
	}
	m["ppr.pushes_per_vector"] = float64(info.Pushes) / float64(info.Vectors)
	m["ppr.dense_frac"] = float64(info.DenseFallbacks) / float64(info.Vectors)
	if err := timed("core.save", func() error { return core.SaveFile(scratch, built) }); err != nil {
		return nil, nil, err
	}
	before := heapAlloc()
	if err := timed("core.load", func() error { l.store, err = core.LoadFile(storePath); return err }); err != nil {
		return nil, nil, err
	}
	m["core.store_heap_mb"] = float64(heapAlloc()-before) / 1e6
	if err := timed("core.disk_open", func() error { l.disk, err = core.OpenDiskStoreWith(storePath, core.DiskOptions{}); return err }); err != nil {
		return nil, nil, err
	}
	l.closers = append(l.closers, func() { l.disk.Close() })
	// Both shard sets serve the replay; the one on the workload's path
	// is timed.
	onPath := func() error { l.shards, err = core.Split(l.store, machines); return err }
	offPath := func() error { l.dshards, err = core.SplitDisk(l.disk, machines); return err }
	if disk {
		onPath, offPath = offPath, onPath
	}
	if err := timed("core.split", onPath); err != nil {
		l.close()
		return nil, nil, err
	}
	if err := offPath(); err != nil {
		l.close()
		return nil, nil, err
	}
	for _, sh := range l.shards {
		l.machines = append(l.machines, &cluster.ShardMachine{Shard: sh})
	}
	if l.coord, err = cluster.NewCoordinator(l.machines...); err != nil {
		l.close()
		return nil, nil, err
	}
	l.gateway = cluster.NewGateway(l.coord).Handler()
	return l, built, nil
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// dialWire connects one pool per machine: to the live TCP workers when
// there are any, else to in-process workers over the memory shards
// served on loopback by this process.
func (l *layers) dialWire(workers []string) error {
	if len(workers) == 0 {
		for _, m := range l.machines {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = cluster.Serve(ln, m) // returns nil once the listener closes
			}()
			l.closers = append(l.closers, func() { ln.Close(); wg.Wait() })
			workers = append(workers, ln.Addr().String())
			l.local = append(l.local, m)
		}
	} else {
		for _, sh := range l.dshards {
			l.local = append(l.local, &cluster.LocalMachine{Backend: sh})
		}
	}
	for _, addr := range workers {
		p, err := cluster.DialPool(addr, 1)
		if err != nil {
			return err
		}
		l.closers = append([]func(){func() { p.Close() }}, l.closers...)
		l.wire = append(l.wire, p)
	}
	return nil
}

// replayOp calls every layer on o's path on the same input, one call per
// span. Calls are sequential; the span tree records which layer each call
// sits inside on the real request path.
func (l *layers) replayOp(t *tracer, req int, o op) error {
	ctx := context.Background()
	root := t.open(req, 0, "op."+o.Kind.String(), false)
	defer t.close(root)
	if o.Kind == opSet {
		p := core.Preference{Nodes: o.Nodes}
		for _, sh := range l.shards {
			id := t.open(req, root, "set_fold", true)
			_, err := sh.QuerySetPacked(p)
			t.close(id)
			if err != nil {
				return err
			}
		}
		return nil
	}
	u := o.Node
	gw := t.open(req, root, "gateway", false)
	rec := httptest.NewRecorder()
	l.gateway.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/ppv/%d?topk=%d", u, topK), nil))
	t.close(gw)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("gateway: status %d: %s", rec.Code, rec.Body)
	}
	co := t.open(req, gw, "coord", false)
	stats, err := l.coord.QueryCtx(ctx, u)
	t.close(co)
	if err != nil {
		return err
	}
	if t.on {
		l.bytes = append(l.bytes, float64(stats.BytesReceived))
		l.straggler = append(l.straggler, straggler(stats.MachineTime))
	}
	parts := make([]sparse.Packed, len(l.machines))
	payloads := make([][]byte, len(l.machines))
	for i, m := range l.machines {
		mid := t.open(req, co, "machine", true)
		payloads[i], _, err = m.QueryShare(ctx, u)
		t.close(mid)
		if err != nil {
			return err
		}
		id := t.open(req, mid, "shard_fold", false)
		share, err := l.shards[i].QueryPacked(u)
		t.close(id)
		if err != nil {
			return err
		}
		id = t.open(req, mid, "encode", false)
		sparse.EncodePacked(share)
		t.close(id)
	}
	for i := range payloads {
		id := t.open(req, co, "decode", false)
		parts[i], err = sparse.DecodePacked(payloads[i])
		t.close(id)
		if err != nil {
			return err
		}
	}
	id := t.open(req, co, "merge", false)
	merged := sparse.MergePacked(parts)
	t.close(id)
	id = t.open(req, gw, "topk", false)
	merged.TopK(topK)
	t.close(id)

	id = t.open(req, root, "fold", false)
	_, err = l.store.QueryPacked(u)
	t.close(id)
	if err != nil {
		return err
	}
	for _, sh := range l.dshards {
		id := t.open(req, root, "disk_fold", true)
		_, err := sh.QueryPacked(u)
		t.close(id)
		if err != nil {
			return err
		}
	}
	for i := range l.wire {
		id := t.open(req, root, "wire.tcp", true)
		_, _, err := l.wire[i].QueryShare(ctx, u)
		t.close(id)
		if err != nil {
			return err
		}
		id = t.open(req, root, "wire.local", true)
		_, _, err = l.local[i].QueryShare(ctx, u)
		t.close(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// workPerQuery is the mean number of vector entries the shards fold per
// read in the sample, summed over shards: a count that repeats exactly.
func (l *layers) workPerQuery(sample []op) (float64, error) {
	var w []float64
	for _, o := range sample {
		if o.Kind != opRead {
			continue
		}
		var sum int64
		for _, sh := range l.shards {
			n, err := sh.QueryWork(o.Node)
			if err != nil {
				return 0, err
			}
			sum += n
		}
		w = append(w, float64(sum))
	}
	return mean(w), nil
}

// straggler is the slowest machine's time over the mean machine time.
func straggler(ts []time.Duration) float64 {
	var sum, hi time.Duration
	for _, d := range ts {
		sum += d
		hi = max(hi, d)
	}
	if sum == 0 {
		return 1
	}
	return float64(hi) * float64(len(ts)) / float64(sum)
}

// replay runs the sample through replayOp and returns its wall time.
func (l *layers) replay(t *tracer, sample []op, firstReq int) (time.Duration, error) {
	start := time.Now()
	for i, o := range sample {
		if err := l.replayOp(t, firstReq+i, o); err != nil {
			return 0, fmt.Errorf("replay %s: %w", o.Kind, err)
		}
	}
	return time.Since(start), nil
}

// diskCounts replays the sample's reads through the disk shards from the
// store's current cache state and returns the counter deltas per query.
// One goroutine gives counts that repeat exactly; more show coalescing.
func (l *layers) diskCounts(sample []op, goroutines int) (core.DiskStats, int, error) {
	var reads []int32
	for _, o := range sample {
		if o.Kind == opRead {
			reads = append(reads, o.Node)
		}
	}
	before := l.disk.Stats()
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(reads); i += goroutines {
				for _, sh := range l.dshards {
					if _, err := sh.QueryPacked(reads[i]); err != nil {
						errs[g] = err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return core.DiskStats{}, 0, err
		}
	}
	after := l.disk.Stats()
	return core.DiskStats{
		CacheHits:      after.CacheHits - before.CacheHits,
		CacheMisses:    after.CacheMisses - before.CacheMisses,
		CoalescedReads: after.CoalescedReads - before.CoalescedReads,
		Reads:          after.Reads - before.Reads,
	}, len(reads), nil
}

// spanMetrics turns the traced replay's spans into per-layer metrics.
func spanMetrics(spans []span, m map[string]float64) {
	self := selfTimes(spans)
	type opSpans struct {
		byName map[string][]time.Duration
		self   map[string]time.Duration
	}
	ops := map[int]*opSpans{}
	var reqs []int
	for i, s := range spans {
		if s.Req == 0 {
			continue
		}
		o := ops[s.Req]
		if o == nil {
			o = &opSpans{byName: map[string][]time.Duration{}, self: map[string]time.Duration{}}
			ops[s.Req] = o
			reqs = append(reqs, s.Req)
		}
		o.byName[s.Name] = append(o.byName[s.Name], s.dur())
		o.self[s.Name] += self[i]
	}
	var fold, shardMax, setMax, enc, dec, merge, topk, coordSelf, gwSelf, gwTotal, diskMax, wire []float64
	for _, r := range reqs {
		o := ops[r]
		if ds := o.byName["set_fold"]; len(ds) > 0 {
			setMax = append(setMax, us(maxDur(ds)))
			continue
		}
		fold = append(fold, us(sumDur(o.byName["fold"])))
		shardMax = append(shardMax, us(maxDur(o.byName["shard_fold"])))
		enc = append(enc, us(sumDur(o.byName["encode"])))
		dec = append(dec, us(sumDur(o.byName["decode"])))
		merge = append(merge, us(sumDur(o.byName["merge"])))
		topk = append(topk, us(sumDur(o.byName["topk"])))
		coordSelf = append(coordSelf, us(o.self["coord"]))
		gwSelf = append(gwSelf, us(o.self["gateway"]))
		gwTotal = append(gwTotal, us(sumDur(o.byName["gateway"])))
		diskMax = append(diskMax, us(maxDur(o.byName["disk_fold"])))
		tcp, local := o.byName["wire.tcp"], o.byName["wire.local"]
		for i := range tcp {
			wire = append(wire, us(tcp[i]-local[i]))
		}
	}
	m["core.fold_us"] = median(fold)
	m["core.shard_fold_max_us"] = median(shardMax)
	m["core.set_fold_us"] = median(setMax)
	m["sparse.encode_us"] = median(enc)
	m["sparse.decode_us"] = median(dec)
	m["sparse.merge_us"] = median(merge)
	m["sparse.topk_us"] = median(topk)
	m["cluster.coord_us"] = median(coordSelf)
	m["cluster.gateway_us"] = median(gwSelf)
	m["cluster.handler_us"] = median(gwTotal)
	m["core.disk_fold_us"] = median(diskMax)
	m["cluster.wire_us"] = median(wire)
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

// updateLayer applies the batch sequence to store through a LiveStore,
// one span per batch, and records the update layer's metrics.
func updateLayer(t *tracer, m map[string]float64, store *core.Store, batches []graph.Delta, firstReq int) error {
	live := core.NewLiveStore(store)
	var walls, fracs []float64
	var promoted, pushes, recomputed int64
	for i, d := range batches {
		id := t.open(firstReq+i, 0, "core.update", false)
		info, err := live.ApplyUpdates(d, 0)
		t.close(id)
		if err != nil {
			return fmt.Errorf("update batch %d: %w", i, err)
		}
		walls = append(walls, ms(info.Wall))
		fracs = append(fracs, float64(info.Recomputed)/float64(info.StoreVectors))
		promoted += int64(info.Promoted)
		pushes += info.Pushes
		recomputed += int64(info.Recomputed)
	}
	m["core.update_ms"] = median(walls)
	m["core.update_recompute_frac"] = mean(fracs)
	m["core.update_promoted"] = float64(promoted)
	m["ppr.update_pushes_per_vector"] = float64(pushes) / float64(recomputed)
	return nil
}
