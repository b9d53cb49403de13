package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// deployment is one set of running serving processes behind one gateway.
type deployment struct {
	procs   []*proc
	base    string   // gateway URL
	workers []string // TCP worker addresses, when the gateway has any
}

// stop kills every process and waits for each to exit.
func (d *deployment) stop() {
	for _, p := range d.procs {
		p.stop()
	}
}

// cpu is the summed user+system CPU time of the serving processes.
func (d *deployment) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, p := range d.procs {
		c, err := procCPU(p.pid())
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// peakRSS is the summed peak resident set of the serving processes.
func (d *deployment) peakRSS() (int64, error) {
	var sum int64
	for _, p := range d.procs {
		r, err := procPeakRSS(p.pid())
		if err != nil {
			return 0, err
		}
		sum += r
	}
	return sum, nil
}

// setupTime splits one setup into the offline build and the serving
// start, which ends at the gateway's first answer.
type setupTime struct {
	total, precomp, serve time.Duration
}

// setup builds the store with pprprecomp and starts the workload's
// servers, timing both. The deployment it returns is serving.
func (b *bench) setup(i int) (*deployment, setupTime, record, error) {
	var st setupTime
	start := time.Now()
	err := runProc(b.dir, fmt.Sprintf("precomp-%d", i), filepath.Join(b.bin, "pprprecomp"),
		"-dataset", "file:"+b.edges, "-o", b.store)
	if err != nil {
		return nil, st, record{}, err
	}
	st.precomp = time.Since(start)
	dep, err := b.start(i)
	if err != nil {
		return nil, st, record{}, err
	}
	probe, err := b.waitReady(dep)
	if err != nil {
		dep.stop()
		return nil, st, record{}, err
	}
	st.total = time.Since(start)
	st.serve = st.total - st.precomp
	return dep, st, probe, nil
}

// start launches the workload's serving processes. TCP workers must be
// listening before the coordinator gateway starts, since it dials them
// once at start.
func (b *bench) start(i int) (*deployment, error) {
	serve := filepath.Join(b.bin, "pprserve")
	dep := &deployment{}
	launch := func(name string, args ...string) (*proc, error) {
		p, err := startProc(b.dir, fmt.Sprintf("%s-%d", name, i), serve, args...)
		if err != nil {
			dep.stop()
			return nil, err
		}
		dep.procs = append(dep.procs, p)
		return p, nil
	}
	of := strconv.Itoa(machines)
	gw, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dep.base = "http://" + gw
	if !b.w.disk {
		args := []string{"-store", b.store, "-of", of, "-http", gw}
		if b.w.updates {
			args = append(args, "-updates")
		}
		_, err := launch("gateway", args...)
		return dep, err
	}
	for s := 0; s < machines; s++ {
		addr, err := freeAddr()
		if err != nil {
			dep.stop()
			return nil, err
		}
		if _, err := launch(fmt.Sprintf("worker%d", s), "-store", b.store, "-disk",
			"-shard", strconv.Itoa(s), "-of", of, "-listen", addr); err != nil {
			return nil, err
		}
		dep.workers = append(dep.workers, addr)
	}
	for s, addr := range dep.workers {
		if err := waitListening(dep.procs[s], addr, readyFor); err != nil {
			dep.stop()
			return nil, err
		}
	}
	_, err = launch("gateway", "-coordinator", "-workers", strings.Join(dep.workers, ","),
		"-conns", "1", "-http", gw)
	return dep, err
}

// waitReady polls the gateway with the probe read until it answers 200.
// The answer is checked with every other record after the run.
func (b *bench) waitReady(dep *deployment) (record, error) {
	c := newClient(dep.base)
	defer c.close()
	deadline := time.Now().Add(readyFor)
	for {
		r := c.send(b.probe, nil)
		if r.err == nil && r.status == http.StatusOK {
			return r, nil
		}
		for _, p := range dep.procs {
			if p.exited() {
				return record{}, fmt.Errorf("%s exited during start: %s", p.name, p.logTail())
			}
		}
		if time.Now().After(deadline) {
			return record{}, fmt.Errorf("gateway not ready after %v (last: status %d, %v)", readyFor, r.status, r.err)
		}
		time.Sleep(readyPoll)
	}
}
