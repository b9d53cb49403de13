package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"exactppr/internal/graph"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/sparse"
)

// Store persistence. The file carries the graph (as a binary edge
// list), the hierarchy's build options and its partition tree, the PPR
// parameters, and the vector sections — everything serving needs, so
// neither Load nor OpenDiskStore re-runs the partitioner, and an
// updated store (whose hub promotions depend on its delta history, not
// on its final graph) saves and loads like a fresh one.
//
// The format (version 3; Save writes it, and it is the only one Load and
// OpenDiskStore read) is designed for zero-copy memory-mapped serving.
// Layout, little-endian throughout:
//
//	magic "EXPPRST3"
//	params:    alpha, eps float64; maxIter, dangling int32
//	hierarchy: fanout, maxLevels, minSize int32; imbalance float64; seed int64
//	graph:     n, m int32; m × (u, v int32)
//	tree:      k int32; k × (node id, parent index int32);
//	           n × home index int32; n × hub flag uint8
//	3 sections (hub partials, leaf PPVs, hub plans):
//	           count int32; count × (key int32, payloadLen int32,
//	           pad to 8-byte file offset, columnar payload)
//
// The tree section is hierarchy.Tree: nodes in pre-order with their
// parent's index (-1 for the root), and per vertex its home node's
// index and whether it is a hub there. Section keys are strictly
// ascending. Vector payloads use the columnar layout of
// sparse.EncodeColumnar — the 8-byte alignment of every payload is what
// lets a mapped DiskStore alias the id/score arrays in place. The third
// section holds the plan rows (see plan.go): per query node, the (hub,
// s_u(h)) pairs its fold needs, in fold order. It is the only copy of
// the skeletons, and every open checks each row against the tree.
// Files of any other version ("EXPPRST1", "EXPPRST2": the formats whose
// tree was rebuilt from the options at every open) are refused with a
// "re-run pprprecomp" error.

var storeMagic = [8]byte{'E', 'X', 'P', 'P', 'R', 'S', 'T', '3'}

// maxVecLen bounds a single payload record (sanity for corrupt files).
const maxVecLen = 1 << 30

// headerLen is the size of the fixed fields between the magic and the
// edge list: params, hierarchy options, n and m.
const headerLen = 8 + 8 + 4 + 4 + 4 + 4 + 4 + 8 + 8 + 4 + 4

// countingWriter tracks the absolute file offset through a buffered
// writer so Save can pad payloads to 8-byte offsets.
type countingWriter struct {
	w *bufio.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// appendStoreHeader appends everything between the magic and the
// vector sections: parameters, options, graph and tree.
func appendStoreHeader(b []byte, params ppr.Params, h *hierarchy.Hierarchy) []byte {
	le := binary.LittleEndian
	i32 := func(x int32) { b = le.AppendUint32(b, uint32(x)) }
	f64 := func(x float64) { b = le.AppendUint64(b, math.Float64bits(x)) }

	f64(params.Alpha)
	f64(params.Eps)
	i32(int32(params.MaxIter))
	i32(int32(params.Dangling))

	opts := h.Opts
	i32(int32(opts.Fanout))
	i32(int32(opts.MaxLevels))
	i32(int32(opts.MinSize))
	f64(opts.Imbalance)
	b = le.AppendUint64(b, uint64(opts.Seed))

	g := h.G
	i32(int32(g.NumNodes()))
	i32(int32(g.NumEdges()))
	for u := range int32(g.NumNodes()) {
		for _, v := range g.Out(u) {
			i32(u)
			i32(v)
		}
	}

	t := h.Tree()
	i32(int32(len(t.IDs)))
	for i, id := range t.IDs {
		i32(id)
		i32(t.Parents[i])
	}
	for _, x := range t.Home {
		i32(x)
	}
	for _, hub := range t.Hub {
		var flag byte
		if hub {
			flag = 1
		}
		b = append(b, flag)
	}
	return b
}

func sortedKeys[V any](m map[int32]V) []int32 {
	keys := make([]int32, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	return keys
}

// Save writes the store to w, tree included, whether it is freshly
// computed or update-maintained. Keys are written sorted and plan rows
// are in fold order, so saving the same store twice yields
// byte-identical files.
func Save(w io.Writer, s *Store) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := &countingWriter{w: bw}
	if _, err := cw.Write(appendStoreHeader(storeMagic[:len(storeMagic):len(storeMagic)], s.Params, s.H)); err != nil {
		return err
	}
	var meta [16]byte
	writeI32 := func(x int32) error {
		binary.LittleEndian.PutUint32(meta[:4], uint32(x))
		_, err := cw.Write(meta[:4])
		return err
	}
	writeRecord := func(key int32, payload []byte) error {
		binary.LittleEndian.PutUint32(meta[:], uint32(key))
		binary.LittleEndian.PutUint32(meta[4:], uint32(len(payload)))
		pad := int((8 - (cw.n+8)%8) % 8) // meta[8:] stays zero
		if _, err := cw.Write(meta[:8+pad]); err != nil {
			return err
		}
		_, err := cw.Write(payload)
		return err
	}

	for _, section := range []map[int32]sparse.Packed{s.HubPartial, s.LeafPPV} {
		if err := writeI32(int32(len(section))); err != nil {
			return err
		}
		for _, key := range sortedKeys(section) {
			if err := writeRecord(key, sparse.EncodeColumnarPacked(section[key])); err != nil {
				return err
			}
		}
	}
	if err := writeI32(int32(s.plans.rows())); err != nil {
		return err
	}
	for u := range s.H.G.NumNodes() {
		if row := s.plans.row(int32(u)); len(row.hubs) > 0 {
			if err := writeRecord(int32(u), sparse.EncodeColumnar(row.hubs, row.s)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SaveFile writes the store to a file path.
func SaveFile(path string, s *Store) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countingReader reads a store file sequentially through a buffered
// reader, tracking the absolute file offset (payloads are aligned to
// it).
type countingReader struct {
	r   *bufio.Reader
	n   int64
	x32 [4]byte // readInt32's buffer, kept here so it does not escape per call
}

func newCountingReader(r io.Reader) *countingReader {
	return &countingReader{r: bufio.NewReaderSize(r, 1<<20)}
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) skip(n int64) error {
	k, err := c.r.Discard(int(n))
	c.n += int64(k)
	if err == nil && int64(k) < n {
		return io.ErrUnexpectedEOF
	}
	return err
}

// next reads the next n bytes into buf's storage and returns them. The
// buffer grows at most a chunk ahead of the bytes actually read, so a
// corrupt length in a short file fails at its end instead of first
// allocating what the length claims.
func (c *countingReader) next(buf []byte, n int64) ([]byte, error) {
	const chunk = 1 << 20
	if n < 0 {
		return nil, fmt.Errorf("core: corrupt store length %d", n)
	}
	buf = buf[:0]
	for int64(len(buf)) < n {
		k := int(min(n-int64(len(buf)), chunk))
		buf = slices.Grow(buf, k)
		got, err := io.ReadFull(c, buf[len(buf):len(buf)+k])
		buf = buf[:len(buf)+got]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func (c *countingReader) readInt32() (int32, error) {
	if _, err := io.ReadFull(c, c.x32[:]); err != nil {
		return 0, err
	}
	return int32(binary.LittleEndian.Uint32(c.x32[:])), nil
}

// readStoreHeader parses the magic, parameters, options, graph and
// tree — everything before the vector sections — and rebuilds the
// hierarchy from the tree. Every array is read in bulk, and nothing is
// sized by a count from the file until the bytes that count claims have
// been read.
func readStoreHeader(cr *countingReader) (params ppr.Params, h *hierarchy.Hierarchy, err error) {
	var magic [8]byte
	if _, err = io.ReadFull(cr, magic[:]); err != nil {
		return params, nil, err
	}
	if magic != storeMagic {
		if bytes.HasPrefix(magic[:], storeMagic[:7]) {
			return params, nil, fmt.Errorf("core: unsupported store format %q (this build reads %q): re-run pprprecomp", magic, storeMagic)
		}
		return params, nil, fmt.Errorf("core: not a store file (magic %q)", magic)
	}
	b, err := cr.next(nil, headerLen)
	if err != nil {
		return params, nil, err
	}
	le := binary.LittleEndian
	i32 := func() int32 { x := int32(le.Uint32(b)); b = b[4:]; return x }
	f64 := func() float64 { x := math.Float64frombits(le.Uint64(b)); b = b[8:]; return x }

	params.Alpha = f64()
	params.Eps = f64()
	params.MaxIter = int(i32())
	params.Dangling = ppr.DanglingPolicy(i32())
	if err := params.Validate(); err != nil {
		return params, nil, fmt.Errorf("core: store parameters: %w (corrupt store?)", err)
	}

	var opts hierarchy.Options
	opts.Fanout = int(i32())
	opts.MaxLevels = int(i32())
	opts.MinSize = int(i32())
	opts.Imbalance = f64()
	opts.Seed = int64(le.Uint64(b))
	b = b[8:]

	n, m := i32(), i32()
	if n < 0 || m < 0 {
		return params, nil, fmt.Errorf("core: corrupt store header (n=%d m=%d)", n, m)
	}
	edges, err := cr.next(nil, 8*int64(m))
	if err != nil {
		return params, nil, err
	}
	k, err := cr.readInt32()
	if err != nil {
		return params, nil, err
	}
	if k < 0 {
		return params, nil, fmt.Errorf("core: corrupt tree node count %d", k)
	}
	tb, err := cr.next(nil, 8*int64(k)+5*int64(n))
	if err != nil {
		return params, nil, err
	}

	// Every count is now backed by bytes actually read.
	gb := graph.NewBuilder(int(n))
	for e := 0; e < len(edges); e += 8 {
		u, v := int32(le.Uint32(edges[e:])), int32(le.Uint32(edges[e+4:]))
		if u < 0 || u >= n || v < 0 || v >= n {
			return params, nil, fmt.Errorf("core: corrupt edge (%d,%d)", u, v)
		}
		gb.AddEdge(u, v)
	}
	t := hierarchy.Tree{
		IDs:     make([]int32, k),
		Parents: make([]int32, k),
		Home:    make([]int32, n),
		Hub:     make([]bool, n),
	}
	for i := range t.IDs {
		t.IDs[i] = int32(le.Uint32(tb[8*i:]))
		t.Parents[i] = int32(le.Uint32(tb[8*i+4:]))
	}
	tb = tb[8*k:]
	for v := range t.Home {
		t.Home[v] = int32(le.Uint32(tb[4*v:]))
	}
	for v, flag := range tb[4*n:] {
		if flag > 1 {
			return params, nil, fmt.Errorf("core: corrupt hub flag %d for node %d", flag, v)
		}
		t.Hub[v] = flag == 1
	}
	h, err = hierarchy.FromTree(gb.Build(), opts, t)
	if err != nil {
		return params, nil, fmt.Errorf("core: store tree: %w (corrupt store?)", err)
	}
	return params, h, nil
}

// readSection reads one section: a record count in [min, max], then
// each record's key and payload length, with keys strictly ascending
// and accepted by keyOK. It calls f positioned at each payload; f must
// consume exactly vlen bytes.
func readSection(cr *countingReader, name string, min, max int, keyOK func(int32) bool, f func(key, vlen int32) error) error {
	count, err := cr.readInt32()
	if err != nil {
		return err
	}
	if int(count) < min || int(count) > max {
		return fmt.Errorf("core: store's %s section has %d records, want %d to %d (corrupt store?)", name, count, min, max)
	}
	prev := int32(-1)
	for range count {
		key, vlen, err := readRecordMeta(cr)
		if err != nil {
			return err
		}
		if key <= prev || !keyOK(key) {
			return fmt.Errorf("core: store's %s section has a record for node %d, out of order or not in the tree's %s set (corrupt store?)", name, key, name)
		}
		prev = key
		if err := f(key, vlen); err != nil {
			return fmt.Errorf("core: %s %d: %w", name, key, err)
		}
	}
	return nil
}

// readRecordMeta reads one section record's (key, payload length) and
// consumes the alignment padding, leaving the reader at the payload.
func readRecordMeta(cr *countingReader) (key, vlen int32, err error) {
	if key, err = cr.readInt32(); err != nil {
		return
	}
	if vlen, err = cr.readInt32(); err != nil {
		return
	}
	if vlen < 0 || vlen > maxVecLen {
		err = fmt.Errorf("core: corrupt vector length %d", vlen)
		return
	}
	if pad := (8 - cr.n%8) % 8; pad > 0 {
		err = cr.skip(pad)
	}
	return
}

// vectorSections reads the hub partial and leaf PPV sections: exactly
// one record per hub and one per non-hub of h. f is called at each
// payload with the record's section.
func vectorSections(cr *countingReader, h *hierarchy.Hierarchy, f func(section int8, key, vlen int32) error) error {
	n, hubs := h.G.NumNodes(), h.TotalHubs()
	for _, sec := range []struct {
		id    int8
		name  string
		count int
		isHub bool
	}{
		{secHubPartial, "hub partial", hubs, true},
		{secLeafPPV, "leaf", n - hubs, false},
	} {
		keyOK := func(key int32) bool { return key < int32(n) && h.IsHub(key) == sec.isHub }
		if err := readSection(cr, sec.name, sec.count, sec.count, keyOK, func(key, vlen int32) error {
			return f(sec.id, key, vlen)
		}); err != nil {
			return err
		}
	}
	return nil
}

// planSection reads the plan rows, checking each against h (see
// rowChecker). f is called with each row's columns, which alias buf and
// are valid only until f returns; the checker it returns holds each
// hub's stored skeleton entry count.
func planSection(cr *countingReader, h *hierarchy.Hierarchy, f func(u int32, off int64, vlen int32, hubs []int32, s []float64)) (*rowChecker, error) {
	n := h.G.NumNodes()
	rc := newRowChecker(h)
	var buf []byte
	inRange := func(key int32) bool { return key < int32(n) }
	err := readSection(cr, "plan", h.TotalHubs(), n, inRange, func(u, vlen int32) error {
		off := cr.n
		var err error
		if buf, err = cr.next(buf, int64(vlen)); err != nil {
			return err
		}
		hubs, s, err := sparse.ViewColumnar(buf)
		if err != nil {
			return err
		}
		if err := rc.check(u, hubs, s); err != nil {
			return err
		}
		f(u, off, vlen, hubs, s)
		return nil
	})
	if err == nil {
		err = rc.done()
	}
	return rc, err
}

// Load reads a store written by Save. The hierarchy comes from the
// file's tree (its nodes' virtual subgraphs are left unextracted until
// an update needs them), and the plan rows are read straight into the
// store's plan table, each checked against the tree.
func Load(r io.Reader) (*Store, error) { return load(r, -1) }

// load is Load of a stream of size bytes (-1: unknown). A known size
// bounds the plan section, the file's last, so its rows are read into
// arrays allocated once instead of grown row by row.
func load(r io.Reader, size int64) (*Store, error) {
	cr := newCountingReader(r)
	params, h, err := readStoreHeader(cr)
	if err != nil {
		return nil, err
	}
	n, hubs := h.G.NumNodes(), h.TotalHubs()
	s := &Store{
		H:          h,
		Params:     params,
		HubPartial: make(map[int32]sparse.Packed, hubs),
		LeafPPV:    make(map[int32]sparse.Packed, n-hubs),
	}
	var buf []byte // one payload at a time: decoding copies out of it
	err = vectorSections(cr, h, func(sec int8, key, vlen int32) error {
		var err error
		if buf, err = cr.next(buf, int64(vlen)); err != nil {
			return err
		}
		ids, scores, err := sparse.DecodeColumnar(buf)
		if err != nil {
			return err
		}
		vec, err := sparse.PackedView(ids, scores)
		if err != nil {
			return err
		}
		if !vec.InRange(n) {
			return fmt.Errorf("vector has node ids outside [0,%d) (corrupt store?)", n)
		}
		if sec == secHubPartial {
			s.HubPartial[key] = vec
		} else {
			s.LeafPPV[key] = vec
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := planTable{off: make([]int, n+1), hubs: []int32{}, s: []float64{}}
	if size > cr.n {
		// Each entry takes 12 of the bytes left, so this bounds the total.
		entries := (size - cr.n) / 12
		t.hubs, t.s = make([]int32, 0, entries), make([]float64, 0, entries)
	}
	rc, err := planSection(cr, h, func(u int32, _ int64, _ int32, hubs []int32, s []float64) {
		t.off[u+1] = len(hubs)
		t.hubs = append(t.hubs, hubs...)
		t.s = append(t.s, s...)
	})
	if err != nil {
		return nil, err
	}
	for u := range n {
		t.off[u+1] += t.off[u]
	}
	t.skelLen = rc.skelLen
	s.plans = t
	return s, nil
}

// LoadFile reads a store from a file path.
func LoadFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := int64(-1)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	s, err := load(f, size)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
