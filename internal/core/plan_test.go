package core

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"exactppr/internal/hierarchy"
)

// The plan table is the in-memory Store's only skeleton representation.
// These tests pin it to the three things it must agree with: the rows a
// DiskStore reads from the file, the table a from-scratch
// pre-computation builds, and the space figures the hub-major skeleton
// vectors used to give.

// planFixture is the store of the cross-path suite plus its Truncate(0.2)
// clone. 0.2 is above α, so truncation drops most hubs' s_h(h) entries
// and the table must synthesize them as zeros.
func planFixture(t *testing.T) (fresh, truncated *Store) {
	t.Helper()
	s, err := BuildHGPA(testGraph(t, 77), hierarchy.Options{Seed: 78}, tightParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Clone()
	tr.Truncate(0.2)
	return s, tr
}

// updateSnapshots applies 12 seeded random batches (41 hub promotions
// in all) and calls f with every resulting snapshot.
func updateSnapshots(t *testing.T, f func(batch int, s *Store, info *UpdateInfo)) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	s, err := BuildHGPA(updateGraph(t, 29), hierarchy.Options{Seed: 37}, updateParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for batch := range 12 {
		ns, info, err := s.ApplyUpdates(randomDelta(rng, s.H.G, 6), 2)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		s = ns
		f(batch, s, info)
	}
}

func saveBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStorePlanRowsMatchDisk: every in-memory plan row equals the row a
// DiskStore reads for the same node — over mmap and over the ReadAt
// fallback — for a fresh store and for a saved and reopened truncated
// one; and after every update batch the maintained table equals the one
// a fresh pre-computation over the snapshot's hierarchy builds.
func TestStorePlanRowsMatchDisk(t *testing.T) {
	fresh, truncated := planFixture(t)
	for _, tc := range []struct {
		name string
		s    *Store
	}{{"fresh", fresh}, {"truncate0.2", truncated}} {
		path := filepath.Join(t.TempDir(), "s.store")
		if err := SaveFile(path, tc.s); err != nil {
			t.Fatal(err)
		}
		reopened, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reopened.plans, tc.s.plans) {
			t.Fatalf("%s: reopened store's table differs from the saved one", tc.name)
		}
		for _, opts := range []DiskOptions{{}, {DisableMmap: true}} {
			ds, err := OpenDiskStoreWith(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			for u := range int32(reopened.H.G.NumNodes()) {
				want, err := ds.row(u)
				if err != nil {
					t.Fatal(err)
				}
				if got := reopened.plans.row(u); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %+v u=%d: memory row %v, disk row %v", tc.name, opts, u, got, want)
				}
			}
			ds.Close()
		}
	}

	promoted := 0
	updateSnapshots(t, func(batch int, s *Store, info *UpdateInfo) {
		promoted += info.Promoted
		want, err := Precompute(s.H, s.Params, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.plans, want.plans) {
			t.Fatalf("batch %d: maintained table differs from a fresh pre-computation's", batch)
		}
	})
	if promoted == 0 {
		t.Fatal("no batch promoted a hub")
	}
}

// TestStoreSaveRoundTripBytes: Save(Load(f)) reproduces f byte for byte,
// so the table carries every skeleton entry and no synthesized one.
func TestStoreSaveRoundTripBytes(t *testing.T) {
	fresh, truncated := planFixture(t)
	for name, s := range map[string]*Store{"fresh": fresh, "truncate0.2": truncated} {
		file := saveBytes(t, s)
		loaded, err := Load(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saveBytes(t, loaded), file) {
			t.Fatalf("%s: Save(Load(f)) differs from f", name)
		}
	}
}

// TestStoreSpaceAccounting pins Store.SpaceBytes, Stats and every
// Shard.SpaceBytes to the values the hub-major skeleton vectors gave
// (each skeleton vector counted at its encoded size, zero self entries
// not counted), for a fresh, a truncated, and an updated store.
func TestStoreSpaceAccounting(t *testing.T) {
	check := func(name string, s *Store, want Stats, shards map[int][]int64) {
		t.Helper()
		if got := s.Stats(); got != want {
			t.Fatalf("%s: Stats\n got %+v\nwant %+v", name, got, want)
		}
		if got := s.SpaceBytes(); got != want.Bytes {
			t.Fatalf("%s: SpaceBytes %d, want %d", name, got, want.Bytes)
		}
		for n, want := range shards {
			sh, err := Split(s, n)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range sh {
				if got := x.SpaceBytes(); got != want[i] {
					t.Fatalf("%s: shard %d/%d SpaceBytes %d, want %d", name, i, n, got, want[i])
				}
			}
		}
	}
	fresh, truncated := planFixture(t)
	check("fresh", fresh, Stats{
		Hubs: 50, Leaves: 350, PartialEntries: 494, SkeletonEntries: 7068, LeafEntries: 3928,
		Bytes: 139680, Levels: 6, LeafSubgraphs: 18, TotalNodes: 35, GraphNodes: 400,
		GraphEdges: 1613, TotalTreeHub: 50,
	}, map[int][]int64{
		1: {139680},
		2: {66612, 73068},
		3: {52516, 39772, 47392},
		7: {24516, 24512, 18608, 14204, 17848, 20196, 19796},
	})
	check("truncate0.2", truncated, Stats{
		Hubs: 50, Leaves: 350, PartialEntries: 0, SkeletonEntries: 13, LeafEntries: 6,
		Bytes: 2028, Levels: 6, LeafSubgraphs: 18, TotalNodes: 35, GraphNodes: 400,
		GraphEdges: 1613, TotalTreeHub: 50,
	}, map[int][]int64{
		1: {2028},
		2: {1008, 1020},
		3: {724, 640, 664},
		7: {312, 284, 272, 320, 292, 276, 272},
	})

	bytesAfter := []int64{32392, 39376, 42216, 43784, 49116, 53212, 58716, 61792, 65832, 67536, 70448, 72744}
	var last *Store
	updateSnapshots(t, func(batch int, s *Store, _ *UpdateInfo) {
		if got := s.SpaceBytes(); got != bytesAfter[batch] {
			t.Fatalf("batch %d: SpaceBytes %d, want %d", batch, got, bytesAfter[batch])
		}
		last = s
	})
	check("updated", last, Stats{
		Hubs: 63, Leaves: 57, PartialEntries: 1532, SkeletonEntries: 4248, LeafEntries: 221,
		Bytes: 72744, Levels: 4, LeafSubgraphs: 7, TotalNodes: 13, GraphNodes: 120,
		GraphEdges: 426, TotalTreeHub: 63,
	}, map[int][]int64{3: {25732, 23180, 23832}})
}

// TestShardSpaceSameOnDisk: a shard's SpaceBytes is the same whether
// it serves from memory, from a loaded copy, or from the file over mmap
// or the ReadAt fallback, at 1, 2 and 3 shards — for a fresh, a
// truncated and an updated store.
func TestShardSpaceSameOnDisk(t *testing.T) {
	fresh, truncated := planFixture(t)
	var updated *Store
	updateSnapshots(t, func(_ int, s *Store, _ *UpdateInfo) { updated = s })
	for name, s := range map[string]*Store{"fresh": fresh, "truncate0.2": truncated, "updated": updated} {
		path := filepath.Join(t.TempDir(), "s.store")
		if err := SaveFile(path, s); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for nshards := 1; nshards <= 3; nshards++ {
			want, err := Split(s, nshards)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string][]*Shard{}
			if got["loaded"], err = Split(loaded, nshards); err != nil {
				t.Fatal(err)
			}
			for mode, opts := range map[string]DiskOptions{"mmap": {}, "fallback": {DisableMmap: true}} {
				ds, err := OpenDiskStoreWith(path, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer ds.Close()
				if got[mode], err = SplitDisk(ds, nshards); err != nil {
					t.Fatal(err)
				}
			}
			for mode, shards := range got {
				for i, sh := range shards {
					if a, b := sh.SpaceBytes(), want[i].SpaceBytes(); a != b {
						t.Fatalf("%s %s: shard %d/%d SpaceBytes %d, memory %d", name, mode, i, nshards, a, b)
					}
				}
			}
		}
	}
}
