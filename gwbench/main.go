// Command gwbench is the repository's end-to-end serving benchmark. It
// generates a workload from a seed, runs the real pprprecomp and pprserve
// binaries over loopback HTTP, checks every answer against an in-process
// reference, and prints one JSON result line. See README.md.
//
//	bash gwbench/run.sh --workload read-mem --seed 1 --seconds 6 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/gen"
	"exactppr/internal/graph"
)

const (
	machines    = 2 // shards per deployment, one per core of the reference box
	clients     = 2 // closed-loop clients, one keep-alive connection each
	setups      = 3 // setups per untraced run; setup_s is their median
	warmFor     = time.Second
	readyFor    = 2 * time.Minute // longest a server may take to come up
	traceOps    = 500             // ops of the timed stream replayed in process per pass
	tracePasses = 3               // traced passes, each followed by an untraced one
	probeName   = "probe"
	datasetSeed = 1 // the web analogue every workload serves
)

// workload is one traffic mix against one deployment shape.
type workload struct {
	zipf    bool // Zipf-skewed sources instead of uniform
	disk    bool // TCP disk workers behind a coordinator gateway
	updates bool // client 0 sends update batches
}

var workloads = map[string]workload{
	"read-mem":      {},
	"read-disk-tcp": {zipf: true, disk: true},
	"update-mix":    {updates: true},
}

// bench is one run's inputs and working files.
type bench struct {
	name    string
	w       workload
	seed    int64
	bin     string // directory holding pprprecomp and pprserve
	dir     string // this run's working directory
	edges   string
	store   string
	g       *graph.Graph // the graph as the program loads it
	probe   op
	warm    [][]op
	timed   [][][]op // per timed block, per client
	batches []graph.Delta
}

func main() {
	var (
		name    = flag.String("workload", "read-mem", "read-mem, read-disk-tcp or update-mix")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 6, "length of the timed phase, spread over the setups")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from an in-process traced replay")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding pprprecomp and pprserve")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "gwbench: bad flags")
		flag.Usage()
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%s-%d-%d", *name, *seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fatal(err)
	}
	// An interrupted benchmark stops its servers and waits for them
	// before it exits.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.RemoveAll(dir)
		os.Exit(1)
	}()
	b := &bench{name: *name, w: w, seed: *seed, bin: *bin, dir: dir}
	res, err := b.run(time.Duration(*seconds)*time.Second, *trace == 1)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gwbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// prepare generates the dataset and every op. The dataset is fixed: the
// web analogue at scale 1 from dataset seed 1, so a run's store size and
// build work do not depend on the run's seed. The seed drives everything
// a client does: sources, preference sets and update batches.
func (b *bench) prepare() error {
	g, err := gen.Dataset("web", 1, datasetSeed)
	if err != nil {
		return err
	}
	b.edges = filepath.Join(b.dir, "web.txt")
	b.store = filepath.Join(b.dir, "web.store")
	if err := graph.WriteEdgeListFile(b.edges, g); err != nil {
		return err
	}
	// The loader renumbers nodes by first appearance, so ops are drawn
	// over the graph exactly as the program will see it.
	if b.g, err = graph.LoadEdgeListFile(b.edges); err != nil {
		return err
	}
	n := b.g.NumNodes()
	s := uniformSampler(n)
	if b.w.zipf {
		s = zipfSampler(n, b.seed)
	}
	b.probe = op{Kind: opRead, Node: s.draw(rngFor(b.seed, probeName))}
	for c := 0; c < clients; c++ {
		b.warm = append(b.warm, opStream(b.seed, fmt.Sprintf("warm-%d", c), s, streamLen))
	}
	for i := 0; i < setups; i++ {
		var block [][]op
		for c := 0; c < clients; c++ {
			block = append(block, opStream(b.seed, fmt.Sprintf("timed-%d-%d", i, c), s, streamLen))
		}
		b.timed = append(b.timed, block)
	}
	return nil
}

// batchEvery is the update period of update-mix. A batch slows the reads
// that overlap it; at one batch per 2 s they are about 5% of the reads,
// well clear of the 90th percentile, so read_p90_ms does not flip between
// the delayed and the undelayed reads from run to run (at one per second
// they were about 10%, and its spread tripled).
const batchEvery = 2 * time.Second

// batchCount is the number of update batches a timed phase of length d
// applies, so its update work is fixed by its length.
func batchCount(d time.Duration) int { return max(1, int(d/batchEvery)) }

// run sets up n times (n = setups, or 1 when traced) and measures a block
// of d/n after each setup, on that setup's fresh servers. Spreading the
// timed phase over the whole run and over several deployments keeps one
// slow stretch of the shared host, or one unlucky process placement, from
// setting a run's figures.
func (b *bench) run(d time.Duration, traced bool) (*result, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	n := setups
	if traced {
		n = 1
	}
	block := d / time.Duration(n)
	// Every block sends the same prefix of this sequence; read workloads
	// send none, but their traced runs measure the update layer on it.
	batches := updateBatches(b.g, b.seed, batchCount(d))
	if b.w.updates {
		b.batches = batches[:batchCount(block)]
	}
	var (
		recs   []record
		times  []setupTime
		rss    []float64
		ph     timedPhase
		ref    *core.Store
		dep    *deployment
		report []string
	)
	defer func() {
		if dep != nil {
			dep.stop()
		}
	}()
	for i := 0; i < n; i++ {
		var st setupTime
		var probe record
		var err error
		if dep, st, probe, err = b.setup(i); err != nil {
			return nil, err
		}
		times = append(times, st)
		recs = append(recs, probe)
		cs := make([]*client, clients)
		for c := range cs {
			cs[c] = newClient(dep.base)
		}
		// The first warm-up of an untraced run also loads the reference
		// store for the correctness check.
		warm, r, err := b.warmUp(cs, i == 0 && !traced)
		if err == nil {
			if r != nil {
				ref = r
			}
			recs = append(recs, warm...)
			err = ph.measure(dep, cs, b.timed[i], b.batches, block)
		}
		for _, c := range cs {
			c.close()
		}
		if err != nil {
			return nil, err
		}
		peak, err := dep.peakRSS()
		if err != nil {
			return nil, err
		}
		rss = append(rss, float64(peak)/1e6)
		if i < n-1 {
			dep.stop()
			dep = nil
		}
	}
	recs = append(recs, ph.recs...)
	fi, err := os.Stat(b.store)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: ph.metrics()}
	res.Metrics["setup_s"] = metric{median(setupField(times, func(s setupTime) time.Duration { return s.total })), "s"}
	res.Metrics["rss_mb"] = metric{median(rss), "MB"}
	res.Metrics["store_mb"] = metric{float64(fi.Size()) / 1e6, "MB"}
	report = append(report,
		fmt.Sprintf("workload %s seed %d: %d nodes, %d edges, %d machines, %d closed-loop clients, %d timed blocks of %v",
			b.name, b.seed, b.g.NumNodes(), b.g.NumEdges(), machines, clients, n, block),
		fmt.Sprintf("setup_s %.4g s (median of %d: %s; precomp %s s; serve %s s)",
			res.Metrics["setup_s"].Value, len(times), secs(times, func(s setupTime) time.Duration { return s.total }),
			secs(times, func(s setupTime) time.Duration { return s.precomp }),
			secs(times, func(s setupTime) time.Duration { return s.serve })))
	report = append(report, ph.report()...)
	report = append(report,
		fmt.Sprintf("rss_mb %.4g MB (peak summed over %d serving processes, median over %d deployments)",
			res.Metrics["rss_mb"].Value, len(dep.procs), len(rss)),
		fmt.Sprintf("store_mb %.4g MB", res.Metrics["store_mb"].Value))

	if traced {
		m, store, err := b.traceLayers(dep, times[0], res.Metrics["read_p50_ms"].Value, batches)
		if err != nil {
			return nil, err
		}
		ref = store
		res.Metrics = m
	}
	dep.stop()
	dep = nil
	res.Attempted = len(recs)
	if res.Failed, err = checkRecords(recs, ref, machines, b.batches); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	report = append(report, fmt.Sprintf("error_rate %.4g (%d failed of %d attempted, setup probes and warm-up included)",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted))
	for _, line := range report {
		fmt.Println(line)
	}
	return res, nil
}

// warmUp loads the servers before timing starts. With loadRef it also
// loads the reference store for the correctness check meanwhile, so the
// load costs the run no time of its own, and goes on until both are done.
func (b *bench) warmUp(cs []*client, loadRef bool) ([]record, *core.Store, error) {
	var ref *core.Store
	refErr := make(chan error, 1)
	if loadRef {
		go func() {
			var err error
			ref, err = core.LoadFile(b.store)
			refErr <- err
		}()
	} else {
		refErr <- nil
	}
	var recs []record
	start := time.Now()
	for loaded := false; !loaded || time.Since(start) < warmFor; {
		recs = append(recs, loadPhase(cs, b.warm, nil, time.Now(), warmFor/4)...)
		select {
		case err := <-refErr:
			if err != nil {
				return nil, nil, err
			}
			loaded = true
		default:
		}
	}
	return recs, ref, nil
}

// window is one second of timed load: the latencies, in ms, of the
// requests completed in it and the serving CPU it used.
type window struct {
	lat map[opKind][]float64
	cpu time.Duration
}

func (w window) ops() int { return len(w.lat[opRead]) + len(w.lat[opSet]) + len(w.lat[opUpdate]) }

// timedPhase pools the windows of every timed block. Each end-to-end
// metric is the median over windows of the window's figure, so a burst
// of outside load moves a few windows and not the result.
type timedPhase struct {
	recs    []record
	windows []window
	win     time.Duration
	all     map[opKind][]float64 // latencies in ms over all blocks
}

// measure runs one timed block of length d against dep and adds its
// windows to the phase.
func (ph *timedPhase) measure(dep *deployment, cs []*client, streams [][]op, batches []graph.Delta, d time.Duration) error {
	// One-second windows, or one window per update period, so that every
	// window holds the same share of update work.
	per := time.Second
	if len(batches) > 0 {
		per = d / time.Duration(len(batches))
	}
	nw := max(1, int(d/per))
	ph.win = d / time.Duration(nw)
	cpu := make([]time.Duration, nw+1)
	start := time.Now()
	cpuErr := make(chan error, 1)
	go func() {
		var err error
		for k := 0; k <= nw && err == nil; k++ {
			time.Sleep(time.Until(start.Add(ph.win * time.Duration(k))))
			cpu[k], err = dep.cpu()
		}
		cpuErr <- err
	}()
	recs := loadPhase(cs, streams, batches, start, d)
	if err := <-cpuErr; err != nil {
		return err
	}
	ws := make([]window, nw)
	for k := range ws {
		ws[k] = window{lat: map[opKind][]float64{}, cpu: cpu[k+1] - cpu[k]}
	}
	if ph.all == nil {
		ph.all = map[opKind][]float64{}
	}
	for _, r := range recs {
		ph.all[r.op.Kind] = append(ph.all[r.op.Kind], ms(r.lat))
		if k := int(r.end.Sub(start) / ph.win); k < nw {
			ws[k].lat[r.op.Kind] = append(ws[k].lat[r.op.Kind], ms(r.lat))
		}
	}
	ph.recs = append(ph.recs, recs...)
	ph.windows = append(ph.windows, ws...)
	return nil
}

// perWindow collects f over the windows where it is defined.
func (ph *timedPhase) perWindow(f func(w window) (float64, bool)) []float64 {
	var out []float64
	for _, w := range ph.windows {
		if v, ok := f(w); ok {
			out = append(out, v)
		}
	}
	return out
}

func (ph *timedPhase) latency(kind opKind, p float64) []float64 {
	return ph.perWindow(func(w window) (float64, bool) {
		return percentile(sortedCopy(w.lat[kind]), p), len(w.lat[kind]) > 0
	})
}

func (ph *timedPhase) rates() []float64 {
	return ph.perWindow(func(w window) (float64, bool) { return float64(w.ops()) / ph.win.Seconds(), true })
}

func (ph *timedPhase) cpuPerOp() []float64 {
	return ph.perWindow(func(w window) (float64, bool) { return us(w.cpu) / float64(w.ops()), w.ops() > 0 })
}

func (ph *timedPhase) metrics() map[string]metric {
	return map[string]metric{
		"read_p50_ms":   {median(ph.latency(opRead, 50)), "ms"},
		"read_p90_ms":   {median(ph.latency(opRead, 90)), "ms"},
		"set_p50_ms":    {median(ph.latency(opSet, 50)), "ms"},
		"ops_per_s":     {median(ph.rates()), "1/s"},
		"cpu_us_per_op": {median(ph.cpuPerOp()), "us"},
	}
}

// report describes the windowed metrics with their range over windows
// and sample counts, and each op kind's whole-phase distribution.
func (ph *timedPhase) report() []string {
	type row struct {
		name string
		ws   []float64
		n    int
	}
	rows := []row{
		{"read_p50_ms", ph.latency(opRead, 50), len(ph.all[opRead])},
		{"read_p90_ms", ph.latency(opRead, 90), len(ph.all[opRead])},
		{"set_p50_ms", ph.latency(opSet, 50), len(ph.all[opSet])},
		{"ops_per_s", ph.rates(), len(ph.recs)},
		{"cpu_us_per_op", ph.cpuPerOp(), len(ph.recs)},
	}
	if n := len(ph.all[opUpdate]); n > 0 {
		rows = append(rows, row{"upd_p50_ms", ph.latency(opUpdate, 50), n})
	}
	var out []string
	for _, l := range rows {
		out = append(out, fmt.Sprintf("%s %.4g (median of %d windows, range %.4g-%.4g; n=%d)",
			l.name, median(l.ws), len(l.ws), minOf(l.ws), maxOf(l.ws), l.n))
	}
	for _, k := range []opKind{opRead, opSet, opUpdate} {
		if len(ph.all[k]) > 0 {
			out = append(out, latencyLine(k, sortedCopy(ph.all[k])))
		}
	}
	return out
}

// latencyLine reports the whole timed phase's distribution of one op kind:
// median, the highest percentile with ten samples beyond it, and the count.
func latencyLine(k opKind, sorted []float64) string {
	line := fmt.Sprintf("%s latency over the phase: p50 %.4g ms", k, percentile(sorted, 50))
	if p, ok := tailPercentile(len(sorted)); ok && p > 50 {
		line += fmt.Sprintf(", p%g %.4g ms", p, percentile(sorted, p))
	}
	return line + fmt.Sprintf(" (n=%d)", len(sorted))
}

func minOf(xs []float64) float64 { return sortedCopy(xs)[0] }
func maxOf(xs []float64) float64 { return sortedCopy(xs)[len(xs)-1] }

func setupField(ts []setupTime, f func(setupTime) time.Duration) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = f(t).Seconds()
	}
	return out
}

func secs(ts []setupTime, f func(setupTime) time.Duration) string {
	var parts []string
	for _, v := range setupField(ts, f) {
		parts = append(parts, fmt.Sprintf("%.3f", v))
	}
	return strings.Join(parts, " ")
}

// traceLayers measures every per-layer metric in process, with the run's
// servers still up (the disk workload's wire layer talks to its live
// workers). It returns the metrics and the store it loaded, which the
// correctness check reuses.
func (b *bench) traceLayers(dep *deployment, st setupTime, httpReadP50 float64, batches []graph.Delta) (map[string]metric, *core.Store, error) {
	t := newTracer(true)
	m := map[string]float64{
		"setup.precomp_s": st.precomp.Seconds(),
		"setup.serve_s":   st.serve.Seconds(),
	}
	l, built, err := setupLayers(t, m, b.edges, b.store, filepath.Join(b.dir, "rebuilt.store"), b.w.disk)
	if err != nil {
		return nil, nil, err
	}
	defer l.close()
	if err := l.dialWire(dep.workers); err != nil {
		return nil, nil, err
	}
	sample := b.timed[0][0][:traceOps]

	// Disk counters first, from the cold cache of the just-opened store:
	// one goroutine, so the counts repeat exactly.
	ds, nreads, err := l.diskCounts(sample, 1)
	if err != nil {
		return nil, nil, err
	}
	m["core.disk_hit_ratio"] = float64(ds.CacheHits) / float64(ds.CacheHits+ds.CacheMisses)
	m["core.disk_reads_per_query"] = float64(ds.Reads) / float64(nreads)
	l.disk.SetCacheCap(1)
	l.disk.SetCacheCap(1024)
	if ds, nreads, err = l.diskCounts(sample, clients); err != nil {
		return nil, nil, err
	}
	m["core.disk_coalesced_per_query"] = float64(ds.CoalescedReads) / float64(nreads)
	if m["core.work_per_query"], err = l.workPerQuery(sample); err != nil {
		return nil, nil, err
	}

	// A warm pass, then traced and untraced passes in turn: the two kinds
	// run the same calls and differ only by span recording.
	off := newTracer(false)
	if _, err := l.replay(off, sample, 1); err != nil {
		return nil, nil, err
	}
	var on, plain []float64
	for p := 0; p < tracePasses; p++ {
		w, err := l.replay(t, sample, 1+p*len(sample))
		if err != nil {
			return nil, nil, err
		}
		on = append(on, w.Seconds())
		if w, err = l.replay(off, sample, 1); err != nil {
			return nil, nil, err
		}
		plain = append(plain, w.Seconds())
	}
	m["trace.overhead_pct"] = 100 * (median(on)/median(plain) - 1)
	spanMetrics(t.spans, m)
	m["cluster.http_us"] = httpReadP50*1000 - m["cluster.handler_us"]
	delete(m, "cluster.handler_us")
	m["cluster.kb_per_query"] = mean(l.bytes) / 1024
	m["cluster.straggler_ratio"] = mean(l.straggler)

	// The update layer runs on the freshly built store, so the loaded one
	// stays at epoch 0 for the correctness check.
	if err := updateLayer(t, m, built, batches, 1+tracePasses*traceOps); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "traces"), 0o755); err != nil {
		return nil, nil, err
	}
	if err := t.write(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", b.name, b.seed))); err != nil {
		return nil, nil, err
	}
	out := map[string]metric{}
	for k, v := range m {
		out[k] = metric{v, layerUnit(k)}
	}
	return out, l.store, nil
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	for suffix, unit := range map[string]string{"_s": "s", "_ms": "ms", "_us": "us", "_mb": "MB", "_pct": "%"} {
		if strings.HasSuffix(name, suffix) {
			return unit
		}
	}
	switch name {
	case "cluster.kb_per_query":
		return "KB"
	case "core.disk_hit_ratio", "ppr.dense_frac", "core.update_recompute_frac", "cluster.straggler_ratio":
		return "1"
	}
	return "count"
}
