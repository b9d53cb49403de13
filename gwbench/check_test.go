package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"exactppr/internal/cluster"
	"exactppr/internal/core"
	"exactppr/internal/graph"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
)

// testStore builds a small store. Each call builds its own graph, since
// updates advance a store's graph in place.
func testStore(t *testing.T) *core.Store {
	t.Helper()
	s, err := core.BuildHGPA(testGraph(t, 3), hierarchy.Options{Seed: 1}, ppr.Defaults(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// serve answers o through an in-process gateway, as a server would.
func serve(t *testing.T, h http.Handler, o op, batches []graph.Delta, lo, hi int) record {
	t.Helper()
	c := &client{base: ""}
	req, err := c.request(o, batches)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return record{op: o, lo: lo, hi: hi, status: w.Code, body: w.Body.Bytes()}
}

func TestCheckAcceptsServedAnswers(t *testing.T) {
	coord, err := cluster.NewLocalCluster(testStore(t), machines)
	if err != nil {
		t.Fatal(err)
	}
	h := cluster.NewGateway(coord).Handler()
	var recs []record
	for _, o := range opStream(1, "c", uniformSampler(testGraph(t, 3).NumNodes()), 60) {
		recs = append(recs, serve(t, h, o, nil, 0, 0))
	}
	failed, err := checkRecords(recs, testStore(t), machines, nil)
	if err != nil || failed != 0 {
		t.Fatalf("checkRecords = %d, %v; want 0 failures", failed, err)
	}

	perturb := func(name string, f func(*gatewayAnswer)) {
		bad := append([]record(nil), recs...)
		var a gatewayAnswer
		if err := json.Unmarshal(bad[0].body, &a); err != nil {
			t.Fatal(err)
		}
		f(&a)
		bad[0].body, _ = json.Marshal(a)
		failed, err := checkRecords(bad, testStore(t), machines, nil)
		if err != nil || failed != 1 {
			t.Errorf("%s: checkRecords = %d, %v; want 1 failure", name, failed, err)
		}
	}
	perturb("score off by 1e-9", func(a *gatewayAnswer) { a.TopK[0].Score += 1e-9 })
	perturb("ids swapped", func(a *gatewayAnswer) { a.TopK[0].ID, a.TopK[1].ID = a.TopK[1].ID, a.TopK[0].ID })
	perturb("entry dropped", func(a *gatewayAnswer) { a.TopK = a.TopK[:len(a.TopK)-1] })

	within := append([]record(nil), recs...)
	var a gatewayAnswer
	json.Unmarshal(within[0].body, &a)
	a.TopK[0].Score += 1e-14
	within[0].body, _ = json.Marshal(a)
	if failed, err := checkRecords(within, testStore(t), machines, nil); err != nil || failed != 0 {
		t.Errorf("score within tolerance: checkRecords = %d, %v; want 0", failed, err)
	}

	broken := append([]record(nil), recs...)
	broken[1].status = http.StatusBadGateway
	if failed, _ := checkRecords(broken, testStore(t), machines, nil); failed != 1 {
		t.Errorf("a 502 counted as %d failures, want 1", failed)
	}
}

func TestCheckReplaysUpdates(t *testing.T) {
	served := testStore(t)
	live, err := cluster.NewLiveLocalCluster(served, machines)
	if err != nil {
		t.Fatal(err)
	}
	h := cluster.NewGateway(live).Handler()
	batches := updateBatches(served.H.G, 9, 3)
	reads := opStream(2, "u", uniformSampler(served.H.G.NumNodes()), 40)
	var recs []record
	for e := 0; e <= len(batches); e++ {
		for _, o := range reads {
			recs = append(recs, serve(t, h, o, nil, e, e))
		}
		if e < len(batches) {
			recs = append(recs, serve(t, h, op{Kind: opUpdate, Batch: e}, batches, e, e+1))
		}
	}
	failed, err := checkRecords(recs, testStore(t), machines, batches)
	if err != nil || failed != 0 {
		t.Fatalf("checkRecords = %d, %v; want 0 failures", failed, err)
	}

	// An acknowledgement that disagrees with the replay fails.
	ack := len(reads)
	var u map[string]int64
	if err := json.Unmarshal(recs[ack].body, &u); err != nil {
		t.Fatal(err)
	}
	u["recomputed"]++
	bad := append([]record(nil), recs...)
	bad[ack].body, _ = json.Marshal(u)
	if failed, err := checkRecords(bad, testStore(t), machines, batches); err != nil || failed != 1 {
		t.Errorf("wrong recompute count: checkRecords = %d, %v; want 1 failure", failed, err)
	}

	// A read answered after every batch does not match epoch 0 unless the
	// batches left its top-k alone; claiming epoch 0 for all of them must
	// fail at least one.
	stale := append([]record(nil), recs...)
	n := 0
	for i := len(stale) - len(reads); i < len(stale); i++ {
		stale[i].lo, stale[i].hi = 0, 0
		n++
	}
	if failed, _ := checkRecords(stale, testStore(t), machines, batches); failed == 0 {
		t.Errorf("%d post-update answers all passed as epoch-0 answers", n)
	}
}
