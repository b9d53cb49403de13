package cluster

import (
	"context"
	"math"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"

	"exactppr/internal/core"
	"exactppr/internal/graph"
	"exactppr/internal/sparse"
)

// sameBits reports whether two packed vectors are equal bit for bit.
func sameBits(a, b sparse.Packed) bool {
	if a.Len() != b.Len() {
		return false
	}
	for k := 0; k < a.Len(); k++ {
		x, y := a.At(k), b.At(k)
		if x.ID != y.ID || math.Float64bits(x.Score) != math.Float64bits(y.Score) {
			return false
		}
	}
	return true
}

// TestPackedAndWireCoordinatorsAgree runs the same queries through a
// coordinator over in-process machines (shares handed over packed) and
// one over TCP workers serving the same shards (shares encoded,
// framed, decoded): results and byte counts must be identical.
func TestPackedAndWireCoordinatorsAgree(t *testing.T) {
	s := testStore(t)
	const machines = 3
	shards, err := core.Split(s, machines)
	if err != nil {
		t.Fatal(err)
	}
	var local, wire []Machine
	for _, sh := range shards {
		local = append(local, &ShardMachine{Shard: sh})
		addr, stop := startWorker(t, &ShardMachine{Shard: sh})
		defer stop()
		m, err := DialMachine(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		wire = append(wire, m)
	}
	lc, err := NewCoordinator(local...)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := NewCoordinator(wire...)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, ls, ws *QueryStats) {
		t.Helper()
		if !sameBits(ls.Result, ws.Result) {
			t.Fatalf("%s: packed and wire results differ", what)
		}
		if ls.BytesReceived != ws.BytesReceived {
			t.Fatalf("%s: BytesReceived packed %d, wire %d", what, ls.BytesReceived, ws.BytesReceived)
		}
	}
	for u := int32(0); u < 200; u++ {
		ls, err := lc.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := wc.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		check("query", ls, ws)
	}
	rng := rand.New(rand.NewSource(9))
	n := s.H.G.NumNodes()
	for i := 0; i < 50; i++ {
		var p core.Preference
		for _, v := range rng.Perm(n)[:1+rng.Intn(8)] {
			p.Nodes = append(p.Nodes, int32(v))
			p.Weights = append(p.Weights, 0.1+rng.Float64())
		}
		ls, err := lc.QuerySet(p)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := wc.QuerySet(p)
		if err != nil {
			t.Fatal(err)
		}
		check("set", ls, ws)
	}
}

// countingConn counts Write calls on a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestFrameIsOneWrite checks that every frame — request, share, set
// share, error and update ack alike — costs exactly one Write on
// either end of the connection.
func TestFrameIsOneWrite(t *testing.T) {
	s := testStore(t)
	live, err := NewLiveShard(core.NewLiveStore(s), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	clientEnd, serverEnd := net.Pipe()
	cc, sc := &countingConn{Conn: clientEnd}, &countingConn{Conn: serverEnd}
	srv := &Server{Machine: live, Updater: live}
	done := make(chan struct{})
	go func() {
		srv.serveConn(sc)
		close(done)
	}()
	m := newTCPMachine(cc)
	ctx := context.Background()
	frames := int64(0)
	for u := int32(0); u < 20; u++ {
		if _, _, err := m.QueryShare(ctx, u); err != nil {
			t.Fatal(err)
		}
		frames++
	}
	if _, _, err := m.QuerySetShare(ctx, core.Preference{Nodes: []int32{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	frames++
	if _, _, err := m.QueryShare(ctx, -1); err == nil {
		t.Fatal("out-of-range node should fail")
	}
	frames++
	if _, err := m.ApplyUpdates(ctx, graph.Delta{}); err != nil {
		t.Fatal(err)
	}
	frames++
	if got := cc.writes.Load(); got != frames {
		t.Errorf("client: %d writes for %d request frames", got, frames)
	}
	if got := sc.writes.Load(); got != frames {
		t.Errorf("server: %d writes for %d response frames", got, frames)
	}
	m.Close()
	<-done
}
