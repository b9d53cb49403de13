package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The wire format for a vector is:
//
//	uint32 count
//	count × (int32 id, float64 score)  little-endian
//
// 4 + 12·len(v) bytes total. This is the unit in which the cluster layer
// accounts communication cost, mirroring the paper's KB-on-the-wire
// metric.
//
// Encoding is CANONICAL: entries are always written in ascending id
// order, so equal vectors produce byte-identical payloads regardless of
// representation (map or packed) and across repeated encodes. The
// decoder accepts any entry order for compatibility with payloads
// written before canonicalization.

// EncodedSize returns the number of bytes Encode will produce for v.
// Explicit zeros (possible in a hand-built map, never from Set/Add) are
// not encoded.
func EncodedSize(v Vector) int {
	n := 0
	for _, x := range v {
		if x != 0 {
			n++
		}
	}
	return EncodedSizeLen(n)
}

// EncodedSizeLen returns the encoded size of a vector with n entries.
func EncodedSizeLen(n int) int { return 4 + 12*n }

// Encode serializes v into a fresh byte slice in canonical (sorted by
// id, zeros dropped) order.
func Encode(v Vector) []byte {
	ids := make([]int32, 0, len(v))
	for i, x := range v {
		if x != 0 {
			ids = append(ids, i)
		}
	}
	slices.Sort(ids)
	buf := make([]byte, 4+12*len(ids))
	binary.LittleEndian.PutUint32(buf, uint32(len(ids)))
	off := 4
	for _, i := range ids {
		binary.LittleEndian.PutUint32(buf[off:], uint32(i))
		binary.LittleEndian.PutUint64(buf[off+4:], math.Float64bits(v[i]))
		off += 12
	}
	return buf
}

// Decode parses a vector previously produced by Encode or EncodePacked.
func Decode(buf []byte) (Vector, error) {
	n, err := decodeCount(buf)
	if err != nil {
		return nil, err
	}
	v := make(Vector, n)
	off := 4
	for k := 0; k < n; k++ {
		id := int32(binary.LittleEndian.Uint32(buf[off:]))
		x := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4:]))
		if x != 0 {
			v[id] = x
		}
		off += 12
	}
	return v, nil
}

// EncodedSizePacked returns the number of bytes EncodePacked produces.
func EncodedSizePacked(p Packed) int { return EncodedSizeLen(p.Len()) }

// EncodePacked serializes a packed vector. The arrays are already in
// canonical order, so this is a single sequential copy — no sorting, no
// map iteration. Byte-compatible with Encode: Encode(v) and
// EncodePacked(Pack(v)) produce identical payloads.
func EncodePacked(p Packed) []byte {
	return AppendPacked(make([]byte, 0, EncodedSizePacked(p)), p)
}

// AppendPacked appends EncodePacked(p) to dst, so a transport can encode
// a share straight into its frame buffer.
func AppendPacked(dst []byte, p Packed) []byte {
	off, size := len(dst), EncodedSizePacked(p)
	dst = slices.Grow(dst, size)[:off+size]
	buf := dst[off:]
	binary.LittleEndian.PutUint32(buf, uint32(p.Len()))
	o := 4
	for k, id := range p.ids {
		binary.LittleEndian.PutUint32(buf[o:], uint32(id))
		binary.LittleEndian.PutUint64(buf[o+4:], math.Float64bits(p.scores[k]))
		o += 12
	}
	return dst
}

// DecodePacked parses a payload straight into columnar form. Canonical
// payloads decode with one sequential pass; legacy payloads with
// unsorted entries (pre-canonical encoders) are detected and sorted.
// Zero scores are dropped and duplicate ids rejected, so the result is
// always a valid Packed.
func DecodePacked(buf []byte) (Packed, error) {
	n, err := decodeCount(buf)
	if err != nil {
		return Packed{}, err
	}
	ids := make([]int32, 0, n)
	scores := make([]float64, 0, n)
	sorted := true
	off := 4
	for k := 0; k < n; k++ {
		id := int32(binary.LittleEndian.Uint32(buf[off:]))
		x := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4:]))
		off += 12
		if x == 0 {
			continue
		}
		if len(ids) > 0 && id <= ids[len(ids)-1] {
			sorted = false
		}
		ids = append(ids, id)
		scores = append(scores, x)
	}
	if sorted {
		return Packed{ids, scores}, nil
	}
	es := make([]Entry, len(ids))
	for k := range ids {
		es[k] = Entry{ids[k], scores[k]}
	}
	p, err := PackEntries(es)
	if err != nil {
		return Packed{}, fmt.Errorf("sparse: decode: %w", err)
	}
	return p, nil
}

func decodeCount(buf []byte) (int, error) {
	if len(buf) < 4 {
		return 0, fmt.Errorf("sparse: short buffer: %d bytes", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf) != 4+12*n {
		return 0, fmt.Errorf("sparse: buffer length %d does not match count %d", len(buf), n)
	}
	return n, nil
}
