package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"exactppr/internal/hierarchy"
	"exactppr/internal/sparse"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	g := testGraph(t, 40)
	s, err := BuildHGPA(g, hierarchy.Options{Seed: 21}, tightParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.H.G.NumNodes() != g.NumNodes() || loaded.H.G.NumEdges() != g.NumEdges() {
		t.Fatal("graph not restored")
	}
	if loaded.Params != s.Params {
		t.Fatalf("params: %+v vs %+v", loaded.Params, s.Params)
	}
	if len(loaded.HubPartial) != len(s.HubPartial) ||
		!reflect.DeepEqual(loaded.plans, s.plans) ||
		len(loaded.LeafPPV) != len(s.LeafPPV) {
		t.Fatal("vector sections not restored")
	}
	// Queries through the loaded store must be bit-identical.
	for _, u := range []int32{0, 99, 399} {
		want, err := s.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Query(u)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.LInfDistance(got, want); d != 0 {
			t.Fatalf("u=%d: loaded store differs, L∞ = %v", u, d)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := testGraph(t, 41)
	s, err := BuildGPA(g, 3, tightParams(), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.bin")
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := s.Query(7)
	got, _ := loaded.Query(7)
	if d := sparse.LInfDistance(got, want); d != 0 {
		t.Fatalf("file round trip differs: %v", d)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a store"))); err == nil {
		t.Fatal("bad magic should fail")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should fail")
	}
	// Truncated after a valid magic.
	if _, err := Load(bytes.NewReader(storeMagic[:])); err == nil {
		t.Fatal("truncated header should fail")
	}
}

// TestOpenRejectsHierarchyDrift writes a store whose header seed no
// longer rebuilds the hierarchy its vectors were computed for — what an
// old file looks like after a partitioner change — and checks that
// every open path refuses it instead of serving wrong answers.
func TestOpenRejectsHierarchyDrift(t *testing.T) {
	g := testGraph(t, 40)
	s, err := BuildHGPA(g, hierarchy.Options{Seed: 21}, tightParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s.H.Opts.Seed = 22
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	assertRerunPrecomp(t, buf.Bytes())
}

// TestOpenRejectsFormatV1: the retired interleaved-payload format is
// refused by every open path with the same advice as hierarchy drift.
func TestOpenRejectsFormatV1(t *testing.T) {
	g := testGraph(t, 41)
	var buf bytes.Buffer
	buf.WriteString("EXPPRST1")
	writeStoreHeader(&buf, tightParams(), hierarchy.Options{Seed: 1}, g)
	buf.Write(make([]byte, 3*4)) // three empty sections
	assertRerunPrecomp(t, buf.Bytes())
}

// assertRerunPrecomp checks that Load and both disk open paths refuse
// the file bytes with a "re-run pprprecomp" error.
func assertRerunPrecomp(t *testing.T, file []byte) {
	t.Helper()
	if _, err := Load(bytes.NewReader(file)); err == nil || !strings.Contains(err.Error(), "re-run pprprecomp") {
		t.Fatalf("Load: err %v, want a re-run pprprecomp error", err)
	}
	path := filepath.Join(t.TempDir(), "s.store")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []DiskOptions{{}, {DisableMmap: true}} {
		ds, err := OpenDiskStoreWith(path, opts)
		if err == nil {
			ds.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "re-run pprprecomp") {
			t.Fatalf("OpenDiskStoreWith %+v: err %v, want a re-run pprprecomp error", opts, err)
		}
	}
}
