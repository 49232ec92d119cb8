package relation

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"unsafe"
)

// colwire.go is the structural columnar payload codec for wire exchanges
// of rows. The simulator's default wire payload is a raw memory image of
// the element slice (see internal/mpc/wire.go): one memcpy, but a Row's
// bytes are a slice header whose pointer means nothing once it has been
// through a socket. This codec ships the row *contents* as columns
// instead: per attribute one dictionary (in first-seen order) plus one
// uint32 code per row — or the plain values when a message's column has
// few repeats — then the weight column. That is both smaller on the wire
// for the key-repetitive messages join workloads exchange, and lets the
// receiver rebuild every value vector in memory it allocated itself.
//
// The weight section is structural only for a pointer-free W: weight bytes
// are the memory image of each W, which is the whole value of an int64, a
// bool or a float but only addresses for a provenance set. WireImageType
// tells mpc so, and mpc — which decides once per element type — decodes
// this format only when W holds no pointers; for any other W the payload
// still crosses the wire but is compared with what was sent, never decoded
// (mpc/wire.go, case 3). DecodeRowColumns must not be called with a
// pointer-bearing W.
//
// Wire format of one message of n rows (all integers little-endian):
//
//	u8  mode               0 = columnar (uniform arity), 1 = ragged rows
//	mode 0:
//	  u32 arity
//	  per column:
//	    u32 dictLen        plainMarker = no dictionary, values follow
//	    dictLen × u64      dictionary values (first-seen order), or
//	                       n × u64 plain values when plainMarker
//	    n × u32            codes (only when dictLen != plainMarker)
//	  n × sizeof(W)        weight bytes
//	mode 1:
//	  per row: u32 arity, arity × u64 values
//	  n × sizeof(W)        weight bytes
//
// Mode 1 exists so the codec never fails: messages mixing arities (which
// the engines do not produce, but the codec must not corrupt) fall back
// to self-describing rows.
//
// Decoding is strict — every length is bounds-checked and trailing bytes
// are an error — and allocation-lean: all value vectors of a message are
// carved from one backing buffer, mirroring the outbox builds.

const plainMarker = ^uint32(0)

// AppendRowColumns appends the columnar encoding of rows to dst and
// returns the extended buffer. The encoding is deterministic: equal row
// sequences encode to equal bytes.
func AppendRowColumns[W any](dst []byte, rows []Row[W]) []byte {
	n := len(rows)
	uniform := true
	arity := 0
	if n > 0 {
		arity = len(rows[0].Vals)
		for _, r := range rows[1:] {
			if len(r.Vals) != arity {
				uniform = false
				break
			}
		}
	}
	if !uniform {
		dst = append(dst, 1)
		for _, r := range rows {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Vals)))
			for _, v := range r.Vals {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
			}
		}
		return appendWeightBytes(dst, rows)
	}

	dst = append(dst, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(arity))
	for c := 0; c < arity; c++ {
		// First-seen dictionary for the column; fall back to plain values
		// when the message has too few repeats for codes to pay off
		// (dictionary + codes beat plain u64s only below ~n/2 distinct).
		dict := make(map[Value]uint32, n)
		order := make([]Value, 0, n)
		codes := make([]uint32, n)
		for i, r := range rows {
			v := r.Vals[c]
			code, ok := dict[v]
			if !ok {
				code = uint32(len(order))
				dict[v] = code
				order = append(order, v)
			}
			codes[i] = code
		}
		if len(order) > n/2 {
			dst = binary.LittleEndian.AppendUint32(dst, plainMarker)
			for _, r := range rows {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Vals[c]))
			}
			continue
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(order)))
		for _, v := range order {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
		for _, code := range codes {
			dst = binary.LittleEndian.AppendUint32(dst, code)
		}
	}
	return appendWeightBytes(dst, rows)
}

// DecodeRowColumns decodes units rows from the front of payload onto dst,
// returning the extended slice and the unconsumed remainder. All value
// vectors are carved from one backing allocation.
func DecodeRowColumns[W any](dst []Row[W], units int, payload []byte) ([]Row[W], []byte, error) {
	if units < 0 {
		return dst, nil, fmt.Errorf("negative unit count %d", units)
	}
	p := payload
	take := func(k int) ([]byte, error) {
		if len(p) < k {
			return nil, fmt.Errorf("payload truncated: need %d bytes, have %d", k, len(p))
		}
		b := p[:k]
		p = p[k:]
		return b, nil
	}
	mode, err := take(1)
	if err != nil {
		return dst, nil, err
	}

	at := len(dst)
	dst = append(dst, make([]Row[W], units)...)
	out := dst[at:]

	switch mode[0] {
	case 0:
		b, err := take(4)
		if err != nil {
			return dst, nil, err
		}
		arity := int(binary.LittleEndian.Uint32(b))
		if arity > len(p) { // cheap sanity bound before allocating
			return dst, nil, fmt.Errorf("arity %d exceeds payload", arity)
		}
		var backing []Value
		if arity > 0 && units > 0 {
			backing = make([]Value, units*arity)
			for i := range out {
				out[i].Vals = backing[i*arity : (i+1)*arity : (i+1)*arity]
			}
		}
		for c := 0; c < arity; c++ {
			b, err := take(4)
			if err != nil {
				return dst, nil, err
			}
			dictLen := binary.LittleEndian.Uint32(b)
			if dictLen == plainMarker {
				vals, err := take(8 * units)
				if err != nil {
					return dst, nil, err
				}
				for i := 0; i < units; i++ {
					out[i].Vals[c] = Value(binary.LittleEndian.Uint64(vals[8*i:]))
				}
				continue
			}
			if int(dictLen) > units {
				return dst, nil, fmt.Errorf("column %d dictionary of %d entries for %d rows", c, dictLen, units)
			}
			db, err := take(8 * int(dictLen))
			if err != nil {
				return dst, nil, err
			}
			cb, err := take(4 * units)
			if err != nil {
				return dst, nil, err
			}
			for i := 0; i < units; i++ {
				code := binary.LittleEndian.Uint32(cb[4*i:])
				if code >= dictLen {
					return dst, nil, fmt.Errorf("column %d row %d: code %d out of dictionary range [0,%d)", c, i, code, dictLen)
				}
				out[i].Vals[c] = Value(binary.LittleEndian.Uint64(db[8*code:]))
			}
		}
	case 1:
		for i := range out {
			b, err := take(4)
			if err != nil {
				return dst, nil, err
			}
			arity := int(binary.LittleEndian.Uint32(b))
			vb, err := take(8 * arity)
			if err != nil {
				return dst, nil, err
			}
			if arity == 0 {
				continue
			}
			vals := make([]Value, arity)
			for c := range vals {
				vals[c] = Value(binary.LittleEndian.Uint64(vb[8*c:]))
			}
			out[i].Vals = vals
		}
	default:
		return dst, nil, fmt.Errorf("unknown columnar mode %d", mode[0])
	}

	rest, err := decodeWeightBytes(out, p)
	if err != nil {
		return dst, nil, err
	}
	return dst, rest, nil
}

// AppendWireColumns implements the mpc ColumnarWire seam for rows: wire
// messages of Row elements ship columns instead of raw slice-header
// memory. Satisfied structurally — relation does not import mpc.
func (Row[W]) AppendWireColumns(dst []byte, msg []Row[W]) []byte {
	return AppendRowColumns(dst, msg)
}

// WireImageType implements the ColumnarWire seam: the annotation is the
// one part of a row the codec carries as a memory image.
func (Row[W]) WireImageType() reflect.Type { return reflect.TypeFor[W]() }

// DecodeWireColumns is the decoding half of the ColumnarWire seam. The
// whole payload must be consumed.
func (Row[W]) DecodeWireColumns(dst []Row[W], units int, payload []byte) ([]Row[W], error) {
	dec, rest, err := DecodeRowColumns(dst, units, payload)
	if err != nil {
		return dst, err
	}
	if len(rest) != 0 {
		return dst, fmt.Errorf("columnar row payload has %d trailing bytes", len(rest))
	}
	return dec, nil
}

// ---------------------------------------------------------------------------
// Sided row streams
// ---------------------------------------------------------------------------

// SidedRow tags a row with the relation it came from, so both inputs of a
// two-relation router (twoway's grid join, the matmul branches) travel in
// a single exchange round — loads on shared destinations must add up.
type SidedRow[W any] struct {
	Left bool
	Row  Row[W]
}

// Unzip takes a shard of sided rows apart into the two relations it
// carries, each side's rows in arrival order — the input of the local join
// every two-relation router ends with. Both sides are counted first and
// sized once.
func Unzip[W any](shard []SidedRow[W], leftSchema, rightSchema []Attr) (left, right *Relation[W]) {
	left, right = New[W](leftSchema...), New[W](rightSchema...)
	nLeft := 0
	for _, s := range shard {
		if s.Left {
			nLeft++
		}
	}
	left.Rows = make([]Row[W], 0, nLeft)
	right.Rows = make([]Row[W], 0, len(shard)-nLeft)
	for _, s := range shard {
		if s.Left {
			left.AppendRow(s.Row)
		} else {
			right.AppendRow(s.Row)
		}
	}
	return left, right
}

// AppendWireColumns implements mpc.ColumnarWire: SidedRow exchanges over a
// transport ship as a sided columnar stream (flag bitmap + per-side
// column groups) instead of raw row-header memory.
func (SidedRow[W]) AppendWireColumns(dst []byte, msg []SidedRow[W]) []byte {
	return AppendSidedRowColumns(dst, msg)
}

// WireImageType implements the ColumnarWire seam, as for Row.
func (SidedRow[W]) WireImageType() reflect.Type { return reflect.TypeFor[W]() }

// DecodeWireColumns is the decoding half of the ColumnarWire seam.
func (SidedRow[W]) DecodeWireColumns(dst []SidedRow[W], units int, payload []byte) ([]SidedRow[W], error) {
	return DecodeSidedRowColumns(dst, units, payload)
}

// AppendSidedRowColumns encodes a message of two-relation tagged rows (a
// left/right flag plus a row, with uniform arity within each side but not
// across sides). Format: u32 left count, a packed flag bitmap (bit set =
// left), then the left rows' columnar encoding followed by the right rows'.
func AppendSidedRowColumns[W any](dst []byte, msg []SidedRow[W]) []byte {
	var lefts, rights []Row[W]
	for _, m := range msg {
		if m.Left {
			lefts = append(lefts, m.Row)
		} else {
			rights = append(rights, m.Row)
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(lefts)))
	var acc byte
	for i, m := range msg {
		if m.Left {
			acc |= 1 << (i % 8)
		}
		if i%8 == 7 {
			dst = append(dst, acc)
			acc = 0
		}
	}
	if len(msg)%8 != 0 {
		dst = append(dst, acc)
	}
	dst = AppendRowColumns(dst, lefts)
	return AppendRowColumns(dst, rights)
}

// DecodeSidedRowColumns decodes a sided message of units elements,
// appending them to dst in stream order. The whole payload must be
// consumed; on error nothing is returned.
func DecodeSidedRowColumns[W any](dst []SidedRow[W], units int, payload []byte) ([]SidedRow[W], error) {
	if units < 0 {
		return nil, fmt.Errorf("negative unit count %d", units)
	}
	if len(payload) < 4 {
		return nil, fmt.Errorf("sided payload truncated")
	}
	nLeft := int(binary.LittleEndian.Uint32(payload))
	if nLeft > units {
		return nil, fmt.Errorf("sided payload claims %d left rows of %d", nLeft, units)
	}
	payload = payload[4:]
	bm := (units + 7) / 8
	if len(payload) < bm {
		return nil, fmt.Errorf("sided payload bitmap truncated")
	}
	bitmap := payload[:bm]
	payload = payload[bm:]
	lefts, rest, err := DecodeRowColumns[W](nil, nLeft, payload)
	if err != nil {
		return nil, fmt.Errorf("left rows: %w", err)
	}
	rights, rest, err := DecodeRowColumns[W](nil, units-nLeft, rest)
	if err != nil {
		return nil, fmt.Errorf("right rows: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("sided payload has %d trailing bytes", len(rest))
	}
	li, ri := 0, 0
	for i := 0; i < units; i++ {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			if li >= len(lefts) {
				return nil, fmt.Errorf("sided bitmap marks more than %d left rows", nLeft)
			}
			dst = append(dst, SidedRow[W]{Left: true, Row: lefts[li]})
			li++
		} else {
			if ri >= len(rights) {
				return nil, fmt.Errorf("sided bitmap marks more than %d right rows", units-nLeft)
			}
			dst = append(dst, SidedRow[W]{Row: rights[ri]})
			ri++
		}
	}
	return dst, nil
}

// ---------------------------------------------------------------------------
// Weight bytes
// ---------------------------------------------------------------------------

// appendWeightBytes appends the memory image of every row's annotation.
func appendWeightBytes[W any](dst []byte, rows []Row[W]) []byte {
	var zero W
	sz := int(unsafe.Sizeof(zero))
	if sz == 0 {
		return dst
	}
	for i := range rows {
		dst = append(dst, unsafe.Slice((*byte)(unsafe.Pointer(&rows[i].W)), sz)...)
	}
	return dst
}

// decodeWeightBytes fills the annotations of out from the weight section
// at the front of p, returning the remainder. W must be pointer-free (see
// the file header): the bytes are copied into typed memory as they are.
func decodeWeightBytes[W any](out []Row[W], p []byte) ([]byte, error) {
	var zero W
	sz := int(unsafe.Sizeof(zero))
	if sz == 0 {
		return p, nil
	}
	need := sz * len(out)
	if len(p) < need {
		return nil, fmt.Errorf("weight section truncated: need %d bytes, have %d", need, len(p))
	}
	for i := range out {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[i].W)), sz), p[i*sz:])
	}
	return p[need:], nil
}
