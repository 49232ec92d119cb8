package mpc

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// wire.go is the transport carrier of the exchange barrier (see exchange
// in cluster.go): a scope with a Wire (Exec.WithWire, installed by core
// from the options' transport backend) has every attempt of every round
// encoded into counted frames, handed to the wire, and its inboxes taken
// from what the wire delivers. Detection, retry, metering and tracing stay
// in the barrier, which treats this carrier and in-process assembly alike.
//
// Division of labor: the engine's local computation is arbitrary Go code
// (closures over typed shards) and stays in the process that runs the
// execution; what crosses the wire is the round's data plane — counted
// per-destination frames, assembled into inboxes by the transport's
// peers. This is the disaggregated-shuffle shape (Spark's external
// shuffle service, Cosco): compute nodes push sorted frames to a shuffle
// tier that owns per-destination assembly. Peers treat payloads as
// opaque bytes and are keyed only by the frame headers, so one peer tier
// serves every element type the engines exchange.
//
// The contract that makes a Wire admissible is exactly the one
// internal/runtime documents for concurrent assembly: shard dst of the
// result must be the concatenation of the round's messages to dst in
// ascending source order, and the per-destination received counts must
// reflect what was actually delivered. Everything downstream — Stats,
// RoundTrace, fault detection by count verification — is derived from
// those counts after the barrier, which is why results, Stats and traces
// are bit-for-bit identical across transports.
//
// What is rebuilt from delivered bytes is decided once per element type T
// (wireCodecOf), never per message and never by an option, because bytes
// that passed through a socket are untyped memory the collector does not
// trace — a pointer copied out of them into a typed slice is one it never
// saw, and whatever it points to can be freed underneath the inbox:
//
//  1. T holds no pointers: the payload is the raw memory image of the
//     message (rawBytes) and the inbox is decoded from the delivered bytes
//     (appendRaw).
//  2. T implements ColumnarWire and the one part of T its codec copies as
//     a memory image (WireImageType — a row's annotation) holds no
//     pointers: the payload is the structural encoding and the inbox is
//     decoded from the delivered bytes, every pointer in it freshly
//     allocated by the decoder.
//  3. Anything else — the engines' wrapper structs around rows, string
//     keys, provenance annotations: the same payload still crosses the
//     socket, so frames, unit and byte counts and peer statistics are
//     those of cases 1 and 2, but it is opaque. The receiver only compares
//     the delivered bytes with the message it sent and takes the elements
//     from the outbox, which the barrier holds for the whole round, by a
//     typed append. No pointer-bearing value is ever rebuilt from bytes.

// WireMsg is one source→destination message of an exchange round in
// encoded form: its endpoints, its metered size in model units, and its
// payload bytes. Payload is opaque to the transport; only the execution
// that produced it decodes or compares it.
type WireMsg struct {
	From, To int
	Units    int
	Payload  []byte
}

// WireRound is one attempt of one exchange barrier handed to a Wire.
// Msgs holds the round's non-empty messages in ascending (source,
// destination) order — the same deterministic order serial assembly
// consumes them in. Crash and Drop carry the fault plane's directives
// for this attempt, executed by the transport so injected faults are
// physical (a dropped message's bytes never reach its peer): Crash is a
// destination server that dies mid-round losing its inbox, Drop an index
// into Msgs lost in flight; -1 means none.
type WireRound struct {
	Seq     int64 // 1-based exchange index within the execution
	Attempt int   // 0-based retry attempt of this exchange
	PSrc    int   // source server count
	PDst    int   // destination server count
	Crash   int
	Drop    int
	Msgs    []WireMsg
}

// WireInbox is the transport's assembly of one WireRound: for every
// destination the delivered segments in ascending source order, the
// per-destination received unit counts (len PDst; what fault detection
// verifies against the pre-round manifest), and the units a crashed
// destination had received before dying (0 when Crash was -1).
type WireInbox struct {
	Segs [][]WireMsg
	Recv []int64
	Lost int64
}

// ColumnarWire is the structural payload seam: an element type that
// implements it supplies its own wire codec, and every exchange of that
// type over a Wire ships the structural encoding instead of the raw
// memory image. relation.Row implements it (columnar, dictionary-encoded
// value columns), as does the two-relation routers' SidedRow; the
// interface lives here, satisfied structurally, so element packages need
// not import mpc.
//
// Contract: DecodeWireColumns(nil, units, AppendWireColumns(nil, msg))
// must reproduce msg for any msg with len(msg) == units, consuming the
// whole payload; decode errors must be returned, never panics (a
// malformed segment aborts the execution cleanly). The methods are
// invoked on the zero value of T and must not depend on the receiver.
// The codec sees one message at a time — per-message state like
// dictionaries is self-contained — so frames stay opaque to transport
// peers, the frame format is unchanged (Version 1 interops), and Units,
// Stats and traces are byte-count-independent of the payload encoding.
//
// WireImageType names the one type whose values the codec carries as a
// memory image instead of rebuilding them (nil when there is none).
// DecodeWireColumns is only ever invoked when that type holds no pointers;
// otherwise the payload is compared, not decoded (case 3 above).
type ColumnarWire[T any] interface {
	AppendWireColumns(dst []byte, msg []T) []byte
	DecodeWireColumns(dst []T, units int, payload []byte) ([]T, error)
	WireImageType() reflect.Type
}

// Wire executes exchange barriers on a transport backend. Implementations
// must be deterministic in the sense above; they may block (network
// round-trips) and must observe ctx. An error aborts the execution (it
// unwinds like cancellation and surfaces at the execution root).
//
// A Wire is used by one execution at a time: rounds arrive sequentially,
// already numbered, and retries of a round re-arrive with the same Seq
// and a higher Attempt.
type Wire interface {
	ExchangeRound(ctx context.Context, r *WireRound) (*WireInbox, error)
	Close() error
}

// WithWire returns a scope identical to ex whose exchange barriers run on
// w. Attach it before placing data, like a Tracer: Parts from the wired
// and unwired scopes must not be mixed. A nil w returns ex unchanged.
func (ex *Exec) WithWire(w Wire) *Exec {
	if w == nil || ex == nil {
		return ex
	}
	cp := *ex
	cp.wire = w
	cp.wireSeq = new(atomic.Int64)
	return &cp
}

// nextWireSeq claims the next exchange index for wire framing.
func (ex *Exec) nextWireSeq() int64 { return ex.wireSeq.Add(1) }

// wireError aborts the execution with a transport failure, through the
// same sentinel unwind as cancellation; the root recovers it into an
// ordinary error.
func wireError(err error) {
	panic(canceled{fmt.Errorf("mpc: transport: %w", err)})
}

// wireRebuild memoizes wireCodecOf's per-type decision (reflect.Type →
// bool); it is a pure function of the type.
var wireRebuild sync.Map

// wireCodecOf is the only gate in front of appendRaw and DecodeWireColumns:
// it reports T's structural codec (nil when T has none) and whether an
// inbox of T may be rebuilt from delivered bytes — cases 1 and 2 of the
// rule in the file header — or must be taken from the outbox (case 3).
func wireCodecOf[T any]() (cw ColumnarWire[T], rebuild bool) {
	var zero T
	cw, _ = any(zero).(ColumnarWire[T])
	t := reflect.TypeFor[T]()
	if v, ok := wireRebuild.Load(t); ok {
		return cw, v.(bool)
	}
	image := t
	if cw != nil {
		image = cw.WireImageType()
	}
	rebuild = image == nil || pointerFree(image)
	wireRebuild.Store(t, rebuild)
	return cw, rebuild
}

// pointerFree reports whether values of type t hold no pointers, so that
// their memory image is the whole value.
func pointerFree(t reflect.Type) bool {
	switch k := t.Kind(); {
	case k >= reflect.Bool && k <= reflect.Complex128: // the scalar kinds
		return true
	case k == reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case k == reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// roundMessages lists a round's non-empty messages in ascending (src, dst)
// order — the one order drop indices, wire frames and inbox assembly
// share — with payloads from encode (nil leaves them empty).
func roundMessages[T any](out [][][]T, encode func(m []T) []byte) []WireMsg {
	var msgs []WireMsg
	for src := range out {
		for dst, m := range out[src] {
			if len(m) == 0 {
				continue
			}
			msg := WireMsg{From: src, To: dst, Units: len(m)}
			if encode != nil {
				msg.Payload = encode(m)
			}
			msgs = append(msgs, msg)
		}
	}
	return msgs
}

// carryWire is the transport carrier: one attempt of one exchange barrier
// over the scope's wire. It encodes the outboxes into counted frames, lets
// the transport deliver and assemble them — executing the attempt's fault
// directives physically: the dropped message, an index into the round's
// non-empty messages in ascending (src, dst) order, is elided before it is
// written to a socket, and a crashed destination's assembled inbox is
// discarded peer-side — and takes the inboxes from what came back. The
// outboxes are never mutated, so a retry re-encodes from them.
func carryWire[T any](ex *Exec, seq int64, attempt, pDst int, out [][][]T, inj injection) (shards [][]T, recv []int64, lost int64) {
	cw, rebuild := wireCodecOf[T]()

	r := &WireRound{
		Seq: seq, Attempt: attempt,
		PSrc: len(out), PDst: pDst,
		Crash: inj.crash, Drop: inj.dropIdx,
		Msgs: roundMessages(out, func(m []T) []byte {
			if cw != nil {
				return cw.AppendWireColumns(nil, m)
			}
			return rawBytes(m)
		}),
	}

	in, err := ex.wire.ExchangeRound(ex.Context(), r)
	if err != nil {
		ex.checkpoint() // a cancelled round is a cancellation, not a transport failure
		wireError(err)
	}
	if len(in.Recv) != pDst || len(in.Segs) != pDst {
		wireError(fmt.Errorf("inbox shape %d/%d destinations, want %d", len(in.Recv), len(in.Segs), pDst))
	}

	// Destinations are independent, exactly like in-process assembly, so
	// they are taken on the scope's runtime; a malformed segment aborts via
	// the sentinel, which ForEachShard re-propagates.
	shards = make([][]T, pDst)
	ex.ForEachShard(pDst, func(dst int) {
		segs := in.Segs[dst]
		if len(segs) == 0 {
			return
		}
		total := 0
		for _, sg := range segs {
			total += sg.Units
		}
		inbox := make([]T, 0, total)
		prev := -1
		for _, sg := range segs {
			if sg.From <= prev {
				wireError(fmt.Errorf("destination %d segments out of source order (%d after %d)", dst, sg.From, prev))
			}
			prev = sg.From
			var err error
			switch {
			case !rebuild:
				i, sent := slices.BinarySearchFunc(r.Msgs, sg.From, func(m WireMsg, from int) int {
					return cmp.Or(cmp.Compare(m.From, from), cmp.Compare(m.To, dst))
				})
				if sent && sg.Units == r.Msgs[i].Units && bytes.Equal(sg.Payload, r.Msgs[i].Payload) {
					inbox = append(inbox, out[sg.From][dst]...)
				} else {
					err = fmt.Errorf("delivered %d units that are not the message sent", sg.Units)
				}
			case cw != nil:
				inbox, err = cw.DecodeWireColumns(inbox, sg.Units, sg.Payload)
			default:
				inbox, err = appendRaw(inbox, sg.Units, sg.Payload)
			}
			if err != nil {
				wireError(fmt.Errorf("destination %d segment from %d: %w", dst, sg.From, err))
			}
		}
		if int64(total) != in.Recv[dst] {
			wireError(fmt.Errorf("destination %d decoded %d units but transport counted %d", dst, total, in.Recv[dst]))
		}
		shards[dst] = inbox
	})
	return shards, in.Recv, in.Lost
}

// rawBytes returns the memory of xs as a byte slice aliasing xs (no copy):
// the PR 2 outboxes carve all rows of a source from one backing buffer, so
// a message is one contiguous span and its byte count is exactly the
// Units × sizeof(element) the tracer reports as Bytes. For a pointer-free
// element type these bytes are the message; for any other they are an
// opaque image that only ever gets compared (see the file header).
func rawBytes[T any](xs []T) []byte {
	if len(xs) == 0 {
		return nil
	}
	sz := unsafe.Sizeof(xs[0])
	if sz == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), uintptr(len(xs))*sz)
}

// appendRaw decodes units elements of a pointer-free T (wireCodecOf is the
// gate) from payload onto dst. The payload length must be exactly
// units × sizeof(T); the bytes are copied into dst's typed backing, never
// aliased, so alignment is always that of a real []T allocation.
func appendRaw[T any](dst []T, units int, payload []byte) ([]T, error) {
	if units < 0 {
		return dst, fmt.Errorf("negative unit count %d", units)
	}
	var zero T
	sz := int(unsafe.Sizeof(zero))
	if sz == 0 {
		if len(payload) != 0 {
			return dst, fmt.Errorf("zero-size elements with %d payload bytes", len(payload))
		}
		for i := 0; i < units; i++ {
			dst = append(dst, zero)
		}
		return dst, nil
	}
	if len(payload) != units*sz {
		return dst, fmt.Errorf("payload is %d bytes for %d units of %d bytes", len(payload), units, sz)
	}
	if units == 0 {
		return dst, nil
	}
	at := len(dst)
	dst = append(dst, make([]T, units)...)
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[at])), uintptr(units)*uintptr(sz)), payload)
	return dst, nil
}
