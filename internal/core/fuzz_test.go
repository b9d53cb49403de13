package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"exactppr/internal/gen"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
)

// tinyStoreFile is a small v3 store with every section populated: a
// two-level tree over 16 nodes, hub partials, leaf PPVs and plan rows.
// It seeds the store fuzzers.
func tinyStoreFile(tb testing.TB) []byte {
	tb.Helper()
	g, err := gen.Community(gen.Config{Nodes: 16, AvgOutDegree: 2, Communities: 2, MinOutDegree: 1, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := BuildHGPA(g, hierarchy.Options{Seed: 1, MinSize: 4}, ppr.Params{Alpha: 0.15, Eps: 1e-3}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadStore: Load errors on every input it cannot serve exactly and
// never panics. Whatever it accepts must answer every node, and save to
// bytes that load back and save to themselves.
func FuzzLoadStore(f *testing.F) {
	f.Add(tinyStoreFile(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for u := range int32(s.H.G.NumNodes()) {
			if _, err := s.QueryPacked(u); err != nil {
				t.Fatalf("loaded store fails query %d: %v", u, err)
			}
		}
		var saved bytes.Buffer
		if err := Save(&saved, s); err != nil {
			t.Fatal(err)
		}
		again, err := Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("a loaded store's own file does not load: %v", err)
		}
		var resaved bytes.Buffer
		if err := Save(&resaved, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resaved.Bytes(), saved.Bytes()) {
			t.Fatal("Save(Load(Save(s))) differs from Save(s)")
		}
	})
}

// FuzzOpenDiskStore: both disk open paths, mmap and ReadAt fallback,
// error on a corrupt file and never panic — at open, at query (which
// may fail with an error on a payload the open only skipped), or at
// close.
func FuzzOpenDiskStore(f *testing.F) {
	f.Add(tinyStoreFile(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "s.store")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []DiskOptions{{}, {DisableMmap: true}} {
			ds, err := OpenDiskStoreWith(path, opts)
			if err != nil {
				continue
			}
			for u := range int32(ds.H.G.NumNodes()) {
				ds.QueryPacked(u)
			}
			shards, err := SplitDisk(ds, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range shards {
				sh.SpaceBytes()
			}
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
