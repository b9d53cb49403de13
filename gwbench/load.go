package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"exactppr/internal/graph"
)

// record is one request the benchmark sent. Bodies are kept raw and
// parsed only after the timed phase, so the load generator spends as
// little CPU as possible while the servers are measured.
type record struct {
	op     op
	lat    time.Duration
	end    time.Time // when the response body was complete
	lo, hi int       // the update epochs the answer may reflect
	status int
	body   []byte
	err    error
}

// client is one closed-loop HTTP client on one keep-alive connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

type setRequest struct {
	Nodes []int32 `json:"nodes"`
	Set   bool    `json:"set"`
	TopK  int     `json:"topk"`
}

type edgesRequest struct {
	Insert [][2]int32 `json:"insert"`
	Delete [][2]int32 `json:"delete"`
}

func (c *client) request(o op, batches []graph.Delta) (*http.Request, error) {
	switch o.Kind {
	case opRead:
		return http.NewRequest(http.MethodGet, fmt.Sprintf("%s/ppv/%d?topk=%d", c.base, o.Node, topK), nil)
	case opSet:
		b, err := json.Marshal(setRequest{Nodes: o.Nodes, Set: true, TopK: topK})
		if err != nil {
			return nil, err
		}
		return http.NewRequest(http.MethodPost, c.base+"/ppv", bytes.NewReader(b))
	default:
		d := batches[o.Batch]
		b, err := json.Marshal(edgesRequest{Insert: d.Insert, Delete: d.Delete})
		if err != nil {
			return nil, err
		}
		return http.NewRequest(http.MethodPost, c.base+"/edges", bytes.NewReader(b))
	}
}

// send issues o. Latency runs from just before the request is written
// until its whole response body has been read.
func (c *client) send(o op, batches []graph.Delta) record {
	rec := record{op: o}
	req, err := c.request(o, batches)
	if err != nil {
		rec.err = err
		return rec
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		rec.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.status = resp.StatusCode
	}
	rec.end = time.Now()
	rec.lat = rec.end.Sub(start)
	rec.err = err
	return rec
}

// epochs counts update batches sent and acknowledged, so each read can
// be tagged with the window of store versions its answer may come from.
type epochs struct {
	started, completed atomic.Int64
}

// runReads sends ops in a closed loop until the deadline, wrapping
// around the stream if it runs out.
func runReads(c *client, ops []op, until time.Time, ep *epochs) []record {
	var recs []record
	for i := 0; time.Now().Before(until); i++ {
		lo := ep.completed.Load()
		r := c.send(ops[i%len(ops)], nil)
		r.lo, r.hi = int(lo), int(ep.started.Load())
		recs = append(recs, r)
	}
	return recs
}

// runUpdater sends batch i when i/len(batches) of the phase has passed
// and reads from ops in between. Every batch is sent even when the
// schedule slips, so each run applies the same update work.
func runUpdater(c *client, ops []op, batches []graph.Delta, start, until time.Time, ep *epochs) []record {
	period := until.Sub(start) / time.Duration(len(batches))
	var recs []record
	next, i := 0, 0
	for {
		now := time.Now()
		if next < len(batches) && !now.Before(start.Add(period*time.Duration(next))) {
			ep.started.Add(1)
			r := c.send(op{Kind: opUpdate, Batch: next}, batches)
			ep.completed.Add(1)
			r.lo, r.hi = next, next+1
			recs = append(recs, r)
			next++
			continue
		}
		if next == len(batches) && !now.Before(until) {
			return recs
		}
		e := int(ep.completed.Load())
		r := c.send(ops[i%len(ops)], nil)
		r.lo, r.hi = e, e
		recs = append(recs, r)
		i++
	}
}

// loadPhase runs the clients concurrently from start until start+d and
// returns every record. With batches, client 0 is the updater.
func loadPhase(clients []*client, streams [][]op, batches []graph.Delta, start time.Time, d time.Duration) []record {
	var ep epochs
	out := make([][]record, len(clients))
	until := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			if i == 0 && len(batches) > 0 {
				out[i] = runUpdater(c, streams[i], batches, start, until, &ep)
			} else {
				out[i] = runReads(c, streams[i], until, &ep)
			}
		}(i, c)
	}
	wg.Wait()
	var all []record
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}
