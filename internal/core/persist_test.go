package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
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
	// A teleport probability of 0, which every fold divides by.
	s, err := BuildHGPA(testGraph(t, 41), hierarchy.Options{Seed: 1}, tightParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	file := saveBytes(t, s)
	clear(file[len(storeMagic) : len(storeMagic)+8])
	assertRefused(t, file, "alpha")
}

// TestOpenRejectsHierarchyDrift writes a store whose tree section is
// another partitioning of the same graph than the one its vectors were
// computed for, and checks that every open path refuses it instead of
// serving wrong answers.
func TestOpenRejectsHierarchyDrift(t *testing.T) {
	g := testGraph(t, 40)
	s, err := BuildHGPA(g, hierarchy.Options{Seed: 21}, tightParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := hierarchy.Build(g, hierarchy.Options{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	drifted := s.Clone()
	drifted.H = other
	assertRefused(t, saveBytes(t, drifted), "corrupt store")
}

// TestOpenRejectsFormatV1 and TestOpenRejectsFormatV2: the retired
// formats — v1's interleaved payloads, v2's rebuilt-at-open tree — are
// refused by every open path with advice to re-run pprprecomp.
func TestOpenRejectsFormatV1(t *testing.T) { assertOldFormatRefused(t, "EXPPRST1") }
func TestOpenRejectsFormatV2(t *testing.T) { assertOldFormatRefused(t, "EXPPRST2") }

func assertOldFormatRefused(t *testing.T, magic string) {
	t.Helper()
	s, err := BuildHGPA(testGraph(t, 41), hierarchy.Options{Seed: 1}, tightParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	file := saveBytes(t, s)
	copy(file, magic)
	assertRefused(t, file, "re-run pprprecomp")
}

// assertRefused checks that Load and both disk open paths refuse the
// file bytes with an error containing want.
func assertRefused(t *testing.T, file []byte, want string) {
	t.Helper()
	if _, err := Load(bytes.NewReader(file)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Load: err %v, want one containing %q", err, want)
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
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("OpenDiskStoreWith %+v: err %v, want one containing %q", opts, err, want)
		}
	}
}

// TestOpenRejectsCorruptPlanRows: Load trusts the plan rows it reads,
// so every open path must refuse a row that breaks the fold's
// invariants — a hub out of range or off the node's path, hubs out of
// fold order, a hub's own entry missing — rather than fold it.
func TestOpenRejectsCorruptPlanRows(t *testing.T) {
	s, _ := planFixture(t)
	h := s.H
	var hub, deep int32 = -1, -1 // a root hub; a non-hub with ≥ 2 row entries
	for u := range int32(h.G.NumNodes()) {
		if hub < 0 && h.HubLevel(u) == 0 {
			hub = u
		}
		if deep < 0 && !h.IsHub(u) && len(s.plans.row(u).hubs) >= 2 {
			deep = u
		}
	}
	if hub < 0 || deep < 0 {
		t.Fatal("fixture has no root hub or no multi-entry row")
	}
	offPath := int32(-1) // a hub that is on no path to deep
	for _, node := range h.Nodes() {
		if len(node.Hubs) > 0 && !slices.Contains(h.Path(deep), node) {
			offPath = node.Hubs[0]
			break
		}
	}
	for _, tc := range []struct {
		name, want string
		edit       func(row planRow)
	}{
		{"out-of-range hub", "out-of-range hub", func(row planRow) { row.hubs[0] = int32(h.G.NumNodes()) }},
		{"hub off the path", "not a hub on the node's path", func(row planRow) { row.hubs[len(row.hubs)-1] = offPath }},
		{"not in fold order", "not in fold order", func(row planRow) { row.hubs[0], row.hubs[1] = row.hubs[1], row.hubs[0] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := s.Clone()
			bad.plans.hubs = slices.Clone(s.plans.hubs)
			tc.edit(bad.plans.row(deep))
			assertRefused(t, saveBytes(t, bad), tc.want)
		})
	}
	t.Run("hub without its own entry", func(t *testing.T) {
		bad := s.Clone()
		a := s.plans.off[hub] + slices.Index(s.plans.row(hub).hubs, hub)
		bad.plans = planTable{
			off:  slices.Clone(s.plans.off),
			hubs: slices.Delete(slices.Clone(s.plans.hubs), a, a+1),
			s:    slices.Delete(slices.Clone(s.plans.s), a, a+1),
		}
		for v := int(hub) + 1; v < len(bad.plans.off); v++ {
			bad.plans.off[v]--
		}
		assertRefused(t, saveBytes(t, bad), "corrupt store")
	})
}

// TestLoadBoundsHeaderAllocation: a header whose counts claim far more
// than the file holds fails at the file's end, having allocated about
// what is there — never what the counts claim.
func TestLoadBoundsHeaderAllocation(t *testing.T) {
	const huge = 1<<31 - 1
	for _, tc := range []struct {
		name string
		n, m int32
	}{{"nodes", huge, 0}, {"edges", 3, huge}} {
		file := slices.Clone(storeMagic[:])
		file = binary.LittleEndian.AppendUint64(file, math.Float64bits(0.15))
		file = binary.LittleEndian.AppendUint64(file, math.Float64bits(1e-4))
		file = append(file, make([]byte, 8+28)...) // maxIter, dangling; options
		file = binary.LittleEndian.AppendUint32(file, uint32(tc.n))
		file = binary.LittleEndian.AppendUint32(file, uint32(tc.m))
		file = binary.LittleEndian.AppendUint32(file, 1) // one tree node
		path := filepath.Join(t.TempDir(), "s.store")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		opens := map[string]func() error{
			"Load": func() error { _, err := Load(bytes.NewReader(file)); return err },
			"OpenDiskStore": func() error {
				ds, err := OpenDiskStore(path)
				if err == nil {
					ds.Close()
				}
				return err
			},
		}
		for name, open := range opens {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := open()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s %s: a %d-byte file claiming n=%d m=%d opened", tc.name, name, len(file), tc.n, tc.m)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
				t.Fatalf("%s %s: allocated %d bytes for a %d-byte file", tc.name, name, got, len(file))
			}
		}
	}
}
