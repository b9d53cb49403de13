package sparse

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	cases := []Vector{
		nil,
		{},
		{7: 0.25},
		{3: 1, 1: 2, 2: -3, 100: 0.5},
	}
	for _, v := range cases {
		p := Pack(v)
		if p.Len() != v.Len() {
			t.Fatalf("Pack(%v).Len() = %d, want %d", v, p.Len(), v.Len())
		}
		got := p.Unpack()
		want := v
		if want == nil {
			want = Vector{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Unpack(Pack(%v)) = %v", v, got)
		}
	}
}

func TestPackedSortedAndGet(t *testing.T) {
	v := Vector{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		v[int32(rng.Intn(10_000))] = rng.NormFloat64()
	}
	p := Pack(v)
	es := p.Entries()
	if !sort.SliceIsSorted(es, func(a, b int) bool { return es[a].ID < es[b].ID }) {
		t.Fatal("Pack produced unsorted ids")
	}
	for id, x := range v {
		if got := p.Get(id); got != x {
			t.Fatalf("Get(%d) = %v, want %v", id, got, x)
		}
	}
	for _, id := range []int32{-1, 10_001, 1 << 30} {
		if v[id] == 0 && p.Get(id) != 0 {
			t.Fatalf("Get(%d) = %v for absent id", id, p.Get(id))
		}
	}
}

func TestPackEntries(t *testing.T) {
	p, err := PackEntries([]Entry{{5, 1}, {2, 0.5}, {9, 0}, {1, -2}})
	if err != nil {
		t.Fatal(err)
	}
	// zero score at 9 must be dropped, rest sorted by id
	want := []Entry{{1, -2}, {2, 0.5}, {5, 1}}
	if !reflect.DeepEqual(p.Entries(), want) {
		t.Fatalf("PackEntries = %v, want %v", p.Entries(), want)
	}

	if _, err := PackEntries([]Entry{{5, 1}, {5, 2}}); err == nil {
		t.Fatal("PackEntries accepted duplicate ids")
	}
	// duplicates where one copy is zero: zero dropped first, no error
	if _, err := PackEntries([]Entry{{5, 1}, {5, 0}}); err != nil {
		t.Fatalf("duplicate with zero copy should be fine after dropping: %v", err)
	}

	empty, err := PackEntries(nil)
	if err != nil || empty.Len() != 0 {
		t.Fatalf("PackEntries(nil) = %v, %v", empty, err)
	}
}

func TestPackFromDenseIDs(t *testing.T) {
	dense := []float64{0, 1.5, 0, -2, 0, 0.25}
	p := PackFromDenseIDs([]int32{5, 1, 3, 2}, dense) // 2 holds a zero: dropped
	want := []Entry{{1, 1.5}, {3, -2}, {5, 0.25}}
	if !reflect.DeepEqual(p.Entries(), want) {
		t.Fatalf("PackFromDenseIDs = %v, want %v", p.Entries(), want)
	}
	if empty := PackFromDenseIDs(nil, dense); empty.Len() != 0 {
		t.Fatalf("empty ids produced %v", empty.Entries())
	}
}

func TestPackedFromDense(t *testing.T) {
	p := PackedFromDense([]float64{0, 1, -0.5, 1e-9, 2}, 1e-8)
	want := []Entry{{1, 1}, {2, -0.5}, {4, 2}}
	if !reflect.DeepEqual(p.Entries(), want) {
		t.Fatalf("PackedFromDense = %v, want %v", p.Entries(), want)
	}
	if p := PackedFromDense(nil, 0); p.Len() != 0 {
		t.Fatalf("PackedFromDense(nil) non-empty: %v", p.Entries())
	}
}

func TestPackedSumL1Truncated(t *testing.T) {
	p := Pack(Vector{1: 0.5, 2: -0.25, 3: 1e-6})
	if !almostEqual(p.Sum(), 0.5-0.25+1e-6) {
		t.Fatalf("Sum = %v", p.Sum())
	}
	if !almostEqual(p.L1(), 0.75+1e-6) {
		t.Fatalf("L1 = %v", p.L1())
	}
	q, dropped := p.Truncated(1e-4)
	if dropped != 1 || q.Len() != 2 || q.Get(3) != 0 || q.Get(2) != -0.25 {
		t.Fatalf("Truncated = %v, dropped %d", q.Entries(), dropped)
	}
	if p.Len() != 3 {
		t.Fatal("Truncated mutated the receiver")
	}
}

func TestPackedInRange(t *testing.T) {
	if !(Packed{}).InRange(0) {
		t.Fatal("empty vector must be in range of anything")
	}
	p := Pack(Vector{0: 1, 9: 2})
	if !p.InRange(10) || p.InRange(9) {
		t.Fatalf("InRange wrong around the upper bound")
	}
	neg := Pack(Vector{-3: 1, 4: 2})
	if neg.InRange(10) {
		t.Fatal("negative id passed InRange")
	}
}

func TestPackedClone(t *testing.T) {
	p := Pack(Vector{1: 1, 2: 2})
	c := p.Clone()
	c.scores[0] = 99 // mutating the clone must not alias the original
	if p.Get(1) != 1 {
		t.Fatal("Clone shares backing arrays")
	}
}

func TestMergePacked(t *testing.T) {
	a := Pack(Vector{1: 1, 3: 3, 5: 5})
	b := Pack(Vector{2: 2, 3: -3, 6: 6})
	c := Pack(Vector{1: 0.5})
	m := MergePacked([]Packed{a, b, c})
	// entry 3 cancels exactly and must be dropped
	want := Vector{1: 1.5, 2: 2, 5: 5, 6: 6}
	if !reflect.DeepEqual(m.Unpack(), want) {
		t.Fatalf("MergePacked = %v, want %v", m.Unpack(), want)
	}

	if m := MergePacked(nil); m.Len() != 0 {
		t.Fatal("MergePacked(nil) non-empty")
	}
	single := MergePacked([]Packed{a})
	if !reflect.DeepEqual(single.Unpack(), a.Unpack()) {
		t.Fatal("MergePacked of one stream differs")
	}
	if m := MergePacked([]Packed{{}, {}, {}}); m.Len() != 0 {
		t.Fatal("MergePacked of empties non-empty")
	}
}

func TestMergePackedMatchesMapFold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		parts := make([]Packed, 1+rng.Intn(8))
		want := Vector{}
		for i := range parts {
			v := Vector{}
			for j := 0; j < rng.Intn(40); j++ {
				id := int32(rng.Intn(64))
				x := rng.NormFloat64()
				v[id] = x
			}
			parts[i] = Pack(v)
			want.AddScaled(v, 1)
		}
		got := MergePacked(parts).Unpack()
		if len(got) != len(want) {
			t.Fatalf("trial %d: merge has %d entries, map fold %d", trial, len(got), len(want))
		}
		for id, x := range want {
			if !almostEqual(got[id], x) {
				t.Fatalf("trial %d: entry %d = %v, want %v", trial, id, got[id], x)
			}
		}
	}
}

func TestAccumulatorBasics(t *testing.T) {
	a := AcquireAccumulator(100)
	defer a.Release()
	a.Add(5, 1)
	a.Add(5, 0.5)
	a.Add(3, -2)
	a.AddPacked(Pack(Vector{3: 1, 7: 4}), 2)
	a.AddVector(Vector{9: 3}, 0.5)
	if got := a.Get(5); got != 1.5 {
		t.Fatalf("Get(5) = %v", got)
	}
	// Slot 3 cancels exactly (−2 + 2·1) and must be dropped on drain.
	want := Vector{5: 1.5, 7: 8, 9: 1.5}
	if got := a.Vector(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Vector() = %v, want %v", got, want)
	}
	p := a.Packed()
	if !reflect.DeepEqual(p.Unpack(), want) {
		t.Fatalf("Packed() = %v, want %v", p.Unpack(), want)
	}
	es := p.Entries()
	if !sort.SliceIsSorted(es, func(i, j int) bool { return es[i].ID < es[j].ID }) {
		t.Fatal("Packed() drain not sorted")
	}
}

func TestAccumulatorReuseNoLeakage(t *testing.T) {
	// Same accumulator across many simulated queries: values from one
	// query must never bleed into the next, including slots that were
	// touched before and not after.
	a := AcquireAccumulator(50)
	defer a.Release()
	rng := rand.New(rand.NewSource(3))
	for q := 0; q < 200; q++ {
		want := Vector{}
		for i := 0; i < rng.Intn(20); i++ {
			id := int32(rng.Intn(50))
			x := rng.NormFloat64()
			a.Add(id, x)
			want.Add(id, x)
		}
		got := a.Vector()
		if len(got) != len(want) {
			t.Fatalf("query %d: %d entries, want %d (stale slots leaked?)", q, len(got), len(want))
		}
		for id, x := range want {
			if !almostEqual(got[id], x) {
				t.Fatalf("query %d: entry %d = %v, want %v", q, id, got[id], x)
			}
		}
		a.Reset(50)
	}
}

func TestAccumulatorResetReuse(t *testing.T) {
	a := &Accumulator{}
	a.Reset(10)
	a.Add(3, 1)
	a.Reset(10)
	if a.Get(3) != 0 {
		t.Fatal("value survived reset")
	}
	a.Add(4, 2)
	a.Reset(10)
	if a.Get(4) != 0 || a.Get(3) != 0 {
		t.Fatalf("stale values after reset: %v %v", a.Get(3), a.Get(4))
	}
	a.Add(5, 3)
	if got := a.Vector(); !reflect.DeepEqual(got, Vector{5: 3}) {
		t.Fatalf("after reuse: %v", got)
	}
	if got := a.Packed(); !reflect.DeepEqual(got.Entries(), []Entry{{5, 3}}) {
		t.Fatalf("after reuse: Packed() = %v", got.Entries())
	}
}

// sortDrain is the reference drain the bitmap walk replaces: sum the
// adds per id in add order, sort the ids, drop exact zeros.
func sortDrain(adds []Entry) Packed {
	sum := map[int32]float64{}
	var ids []int32
	for _, e := range adds {
		if _, ok := sum[e.ID]; !ok {
			ids = append(ids, e.ID)
			sum[e.ID] = e.Score
			continue
		}
		sum[e.ID] += e.Score
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var p Packed
	for _, id := range ids {
		if x := sum[id]; x != 0 {
			p.ids = append(p.ids, id)
			p.scores = append(p.scores, x)
		}
	}
	return p
}

func samePackedBits(a, b Packed) bool {
	if len(a.ids) != len(b.ids) {
		return false
	}
	for k := range a.ids {
		if a.ids[k] != b.ids[k] || math.Float64bits(a.scores[k]) != math.Float64bits(b.scores[k]) {
			return false
		}
	}
	return true
}

func TestAccumulatorBitmapDrainMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Sizes around word boundaries, not multiples of 64, and a Reset to
	// a larger n after a smaller one (and back) on the same accumulator.
	sizes := []int{1, 2, 63, 64, 65, 127, 128, 129, 1000, 4096, 4097, 70, 3}
	a := &Accumulator{}
	for trial := 0; trial < 400; trial++ {
		n := sizes[trial%len(sizes)]
		a.Reset(n)
		var adds []Entry
		touched := map[int32]bool{}
		add := func(id int32, x float64) {
			a.Add(id, x)
			adds = append(adds, Entry{id, x})
			touched[id] = true
		}
		// The word-boundary ids, when in range.
		for _, id := range []int32{0, 63, 64, int32(n - 1)} {
			if int(id) < n && rng.Intn(2) == 0 {
				add(id, rng.NormFloat64())
			}
		}
		for i := rng.Intn(3 * n); i > 0; i-- {
			id := int32(rng.Intn(n))
			x := rng.NormFloat64()
			add(id, x)
			if rng.Intn(8) == 0 {
				add(id, -a.Get(id)) // exact-zero cancellation
			}
		}
		want := sortDrain(adds)
		if got := a.Packed(); !samePackedBits(got, want) {
			t.Fatalf("trial %d (n=%d): bitmap drain %v, sort drain %v", trial, n, got.Entries(), want.Entries())
		}
		if got := a.Vector(); !reflect.DeepEqual(got, want.Unpack()) {
			t.Fatalf("trial %d (n=%d): Vector() = %v, want %v", trial, n, got, want.Unpack())
		}
		if a.Len() != len(touched) {
			t.Fatalf("trial %d: Len() = %d, want %d", trial, a.Len(), len(touched))
		}
	}
}

func TestAccumulatorPooledReuseAcrossQueries(t *testing.T) {
	// Pooled accumulators pass between queries of different graph sizes;
	// every drain must equal the sort-based reference for its own adds.
	rng := rand.New(rand.NewSource(12))
	for q := 0; q < 300; q++ {
		n := 1 + rng.Intn(700)
		a := AcquireAccumulator(n)
		var adds []Entry
		for i := rng.Intn(n + 1); i > 0; i-- {
			e := Entry{int32(rng.Intn(n)), rng.NormFloat64()}
			a.Add(e.ID, e.Score)
			adds = append(adds, e)
		}
		if got, want := a.Packed(), sortDrain(adds); !samePackedBits(got, want) {
			t.Fatalf("query %d (n=%d): drain %v, want %v", q, n, got.Entries(), want.Entries())
		}
		a.Release()
	}
}

func TestAccumulatorGrow(t *testing.T) {
	a := AcquireAccumulator(4)
	a.Add(3, 1)
	a.Reset(1000) // grow
	a.Add(999, 2)
	if got := a.Vector(); !reflect.DeepEqual(got, Vector{999: 2}) {
		t.Fatalf("after grow: %v", got)
	}
	a.Release()
}

func TestTopKEquivalence(t *testing.T) {
	// Bounded-heap TopK must agree with the full-sort reference on
	// random data, for map and packed alike.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		v := Vector{}
		for i := 0; i < rng.Intn(200); i++ {
			// Coarse scores force plenty of ties to exercise id order.
			v[int32(rng.Intn(500))] = float64(rng.Intn(5)) + 1
		}
		ref := v.Entries()
		sort.Slice(ref, func(a, b int) bool {
			if ref[a].Score != ref[b].Score {
				return ref[a].Score > ref[b].Score
			}
			return ref[a].ID < ref[b].ID
		})
		for _, k := range []int{0, 1, 3, 10, len(v), len(v) + 5} {
			want := ref
			if k < len(want) {
				want = want[:k]
			}
			if got := v.TopK(k); !topKEqual(got, want) {
				t.Fatalf("Vector.TopK(%d) = %v, want %v", k, got, want)
			}
			if got := Pack(v).TopK(k); !topKEqual(got, want) {
				t.Fatalf("Packed.TopK(%d) = %v, want %v", k, got, want)
			}
		}
	}
}

func topKEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEncodeCanonical(t *testing.T) {
	v := Vector{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		v[int32(rng.Intn(5000))] = rng.NormFloat64()
	}
	first := Encode(v)
	for i := 0; i < 10; i++ {
		if !bytes.Equal(Encode(v), first) {
			t.Fatal("Encode is nondeterministic across repeated encodes")
		}
	}
	if !bytes.Equal(EncodePacked(Pack(v)), first) {
		t.Fatal("Encode and EncodePacked disagree on equal vectors")
	}
	// A clone (different map, same values) must also encode identically.
	if !bytes.Equal(Encode(v.Clone()), first) {
		t.Fatal("equal vectors encode unequally")
	}
	// Explicit zeros (only possible in a hand-built map) are dropped, so
	// vectors that compare equal via Get encode identically too.
	withZero := v.Clone()
	withZero[int32(1<<27)] = 0
	if !bytes.Equal(Encode(withZero), first) {
		t.Fatal("explicit zero changed the encoding")
	}
	if EncodedSize(withZero) != len(first) {
		t.Fatal("EncodedSize counts explicit zeros")
	}
}

func TestPackedCodecRoundTrip(t *testing.T) {
	p := Pack(Vector{1: 1, 5: -0.5, 9: 1e-9})
	buf := EncodePacked(p)
	q, err := DecodePacked(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Entries(), p.Entries()) {
		t.Fatalf("round trip = %v, want %v", q.Entries(), p.Entries())
	}
	// The two decoders agree on the same payload.
	v, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v, p.Unpack()) {
		t.Fatalf("Decode = %v, want %v", v, p.Unpack())
	}
}

func TestDecodePackedLegacyUnsorted(t *testing.T) {
	// Payloads written before canonicalization may carry entries in any
	// order; DecodePacked must still produce a sorted result.
	v := Vector{4: 4, 1: 1, 3: 3}
	legacy := encodeInMapOrder(v)
	p, err := DecodePacked(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Unpack(), v) {
		t.Fatalf("legacy decode = %v, want %v", p.Unpack(), v)
	}
}

// encodeInMapOrder reproduces the pre-canonical encoder (map iteration
// order) for legacy-payload tests.
func encodeInMapOrder(v Vector) []byte {
	buf := make([]byte, EncodedSize(v))
	// Count then entries, exactly as Encode, but unsorted. Reuse the
	// packed encoder on a deliberately shuffled "packed" value.
	shuffled := Packed{}
	for i, x := range v {
		shuffled.ids = append(shuffled.ids, i)
		shuffled.scores = append(shuffled.scores, x)
	}
	copy(buf, EncodePacked(shuffled))
	return buf
}

func TestDecodePackedRejectsDuplicates(t *testing.T) {
	dup := Packed{ids: []int32{2, 2}, scores: []float64{1, 1}}
	if _, err := DecodePacked(EncodePacked(dup)); err == nil {
		t.Fatal("DecodePacked accepted duplicate ids")
	}
}
