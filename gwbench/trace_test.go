package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	sp := func(id, parent int, name string, start, end time.Duration, par bool) span {
		return span{ID: id, Parent: parent, Req: 1, Name: name, Start: start * ms, End: end * ms, Par: par}
	}
	spans := []span{
		sp(1, 0, "gateway", 0, 100, false),
		sp(2, 1, "coord", 0, 60, false),
		sp(3, 2, "machine", 0, 25, true), // the two machines ran at once:
		sp(4, 2, "machine", 0, 30, true), // only the slower one counts
		sp(5, 2, "decode", 30, 35, false),
		sp(6, 2, "merge", 35, 45, false),
		sp(7, 1, "topk", 60, 70, false),
		sp(8, 4, "shard_fold", 0, 20, false),
		sp(9, 4, "encode", 20, 28, false),
	}
	want := []time.Duration{100 - 60 - 10, 60 - 30 - 5 - 10, 25, 30 - 20 - 8, 5, 10, 10, 20, 8}
	for i, got := range selfTimes(spans) {
		if got != want[i]*ms {
			t.Errorf("self(%s #%d) = %v, want %v", spans[i].Name, spans[i].ID, got, want[i]*ms)
		}
	}
}

func TestSelfTimesParallelGroupsByName(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", End: 100},
		{ID: 2, Parent: 1, Name: "disk_fold", End: 10, Par: true},
		{ID: 3, Parent: 1, Name: "disk_fold", End: 30, Par: true},
		{ID: 4, Parent: 1, Name: "wire", End: 20, Par: true},
	}
	if got := selfTimes(spans)[0]; got != 100-30-20 {
		t.Errorf("self = %v, want 50", got)
	}
}

func TestTracerOff(t *testing.T) {
	tr := newTracer(false)
	id := tr.open(1, 0, "x", false)
	tr.close(id)
	if id != 0 || len(tr.spans) != 0 {
		t.Errorf("disabled tracer recorded %d spans", len(tr.spans))
	}
	tr = newTracer(true)
	a := tr.open(1, 0, "a", false)
	b := tr.open(1, a, "b", false)
	tr.close(b)
	tr.close(a)
	if len(tr.spans) != 2 || tr.spans[1].Parent != a || tr.spans[0].dur() < tr.spans[1].dur() {
		t.Errorf("spans %+v", tr.spans)
	}
}
