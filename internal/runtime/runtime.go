// Package runtime is the concurrent execution engine under the MPC
// simulator. It runs the per-server work of a simulated round — local
// computation and exchange assembly — on a pool of OS workers, while
// leaving the simulated cost model untouched: results and metered
// Stats are bit-for-bit identical to serial execution.
//
// The design exploits the structure of the MPC model itself. Within a
// round, the p simulated servers are independent by definition: each
// reads only its own shard (plus read-only broadcast state) and writes
// only its own outputs. ForEachShard maps that independence onto real
// parallelism. ExchangeCtx is the one primitive where servers' outputs
// meet; there, each *destination* server owns its inbox — one worker
// assembles shard dst by concatenating the messages out[0][dst],
// out[1][dst], ... in ascending source order, so no two workers ever
// write the same slice and the serial concatenation order is preserved
// exactly. Per-destination received-unit counts are collected into a
// worker-owned vector and aggregated only after the barrier, which is
// why load accounting stays deterministic under any interleaving.
//
// A Runtime is a value-like handle: it carries only the worker count.
// Goroutines are forked per call (fork–join), bounded by the worker
// count, and joined before the call returns, so no pool state outlives
// a primitive and a Runtime is safe for concurrent use.
package runtime

import (
	"context"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
)

// Runtime executes per-shard work on up to workers concurrent OS
// workers. The zero value is not valid; use New or Serial.
type Runtime struct {
	workers int
}

var serial = &Runtime{workers: 1}

// New returns a Runtime with the given worker count. workers <= 0
// selects GOMAXPROCS — one worker per available CPU, the right sizing
// because shard work is CPU-bound; workers == 1 is equivalent to Serial.
func New(workers int) *Runtime {
	if workers <= 0 {
		workers = stdruntime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return serial
	}
	return &Runtime{workers: workers}
}

// Serial returns the single-worker Runtime: every ForEachShard and
// ExchangeCtx runs inline on the calling goroutine, with no goroutines
// forked. It is the escape hatch for debugging and the reference
// semantics the concurrent paths must reproduce exactly.
func Serial() *Runtime { return serial }

// Workers returns the pool size.
func (rt *Runtime) Workers() int { return rt.workers }

// Scratch is a per-worker scratch arena handed to ForEachShardScratch
// callbacks. It amortizes the small bookkeeping buffers a shard
// callback needs every round (destination counts, memoized routing
// decisions) across rounds: the backing storage lives in a sync.Pool
// and is reused, so steady-state rounds allocate nothing for them.
//
// Buffers carved from a Scratch are valid only within the callback
// invocation that carved them — the arena is reset between invocations
// and the Scratch returns to the pool at the round barrier. Callbacks
// must not let carved slices escape (store them in round outputs,
// capture them in closures that outlive the call). Data that crosses
// the round barrier must be allocated normally.
type Scratch struct {
	ints  arena[int]
	words arena[uint64]
	perms arena[uint32]
}

// arena is one element type's bump allocator inside a Scratch.
type arena[E any] struct {
	buf []E
	at  int
}

// carve returns a zeroed length-n slice disjoint from every slice carved
// since the last reset.
func (a *arena[E]) carve(n int) []E {
	if a.at+n > len(a.buf) {
		// Grow the backing array. Slices carved earlier in this callback
		// keep the old backing, so disjointness is preserved.
		a.buf = make([]E, 2*len(a.buf)+n)
		a.at = 0
	}
	s := a.buf[a.at : a.at+n : a.at+n]
	a.at += n
	clear(s)
	return s
}

// reset recycles the arena for the next callback invocation. Carved
// slices from the previous invocation must no longer be referenced.
func (sc *Scratch) reset() { sc.ints.at, sc.words.at, sc.perms.at = 0, 0, 0 }

// Ints carves a zeroed length-n []int from the arena. Successive calls
// within one callback return disjoint slices.
func (sc *Scratch) Ints(n int) []int { return sc.ints.carve(n) }

// Words carves a zeroed length-n []uint64 — the sort kernels' key-image
// columns and ping-pong word buffers — under the rules of Ints.
func (sc *Scratch) Words(n int) []uint64 { return sc.words.carve(n) }

// Perm carves a zeroed length-n []uint32 — the sort kernels' index
// permutations — under the rules of Ints.
func (sc *Scratch) Perm(n int) []uint32 { return sc.perms.carve(n) }

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch checks a Scratch out of the shared pool for callers that
// run per-shard work outside ForEachShardScratch (e.g. serial helpers).
// Pair with PutScratch.
func GetScratch() *Scratch {
	sc := scratchPool.Get().(*Scratch)
	sc.reset()
	return sc
}

// PutScratch returns a Scratch to the pool. The caller must not use it
// or any slice carved from it afterwards.
func PutScratch(sc *Scratch) { scratchPool.Put(sc) }

// ForEachShard invokes fn(i) for every i in [0, n), each exactly once.
// With one worker the calls run inline in ascending order; otherwise
// they run on up to Workers() goroutines which are joined before
// ForEachShard returns (fork–join barrier). fn must therefore confine
// its writes to state owned by shard i; reads of shared state are safe
// only if no worker writes it.
//
// If any invocation panics, ForEachShard waits for the remaining
// workers and then re-panics with the first panic value observed, so
// the simulator's panic-on-misuse contracts survive parallelism.
func (rt *Runtime) ForEachShard(n int, fn func(i int)) {
	rt.forEachShard(nil, n, false, func(i int, _ *Scratch) { fn(i) })
}

// ForEachShardCtx is ForEachShard with cooperative cancellation: when ctx
// is cancelled, workers stop claiming new shards and the call returns
// ctx.Err() after the join barrier. Shards already in flight run to
// completion (shard work is never interrupted mid-element), so the caller
// observes cancellation with at most one shard's worth of latency per
// worker; partially produced outputs must be discarded by the caller. A
// nil ctx means "never cancelled" and is equivalent to ForEachShard.
func (rt *Runtime) ForEachShardCtx(ctx context.Context, n int, fn func(i int)) error {
	return rt.forEachShard(ctx, n, false, func(i int, _ *Scratch) { fn(i) })
}

// ForEachShardScratch is ForEachShard with a per-worker Scratch arena:
// every invocation of fn receives the scratch owned by the worker
// running it, freshly reset. The arenas come from a shared sync.Pool
// and return to it before ForEachShardScratch returns, so steady-state
// rounds reuse the same backing buffers instead of reallocating them.
// The Scratch escape rules apply (see Scratch).
func (rt *Runtime) ForEachShardScratch(n int, fn func(i int, sc *Scratch)) {
	rt.forEachShard(nil, n, true, fn)
}

// ForEachShardScratchCtx is ForEachShardScratch with the cooperative
// cancellation semantics of ForEachShardCtx.
func (rt *Runtime) ForEachShardScratchCtx(ctx context.Context, n int, fn func(i int, sc *Scratch)) error {
	return rt.forEachShard(ctx, n, true, fn)
}

func (rt *Runtime) forEachShard(ctx context.Context, n int, scratch bool, fn func(i int, sc *Scratch)) error {
	if n <= 0 {
		return nil
	}
	// The cancellation probe between shard claims is an inlined nil check
	// (not a closure), keeping the uncancellable paths allocation-free.
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	w := rt.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		var sc *Scratch
		if scratch {
			sc = GetScratch()
			defer PutScratch(sc)
		}
		for i := 0; i < n; i++ {
			if ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			if scratch {
				sc.reset()
			}
			fn(i, sc)
		}
		return nil
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Bool
		panicVal atomic.Value
	)
	body := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				if panicked.CompareAndSwap(false, true) {
					panicVal.Store(&r)
				}
			}
		}()
		var sc *Scratch
		if scratch {
			sc = GetScratch()
			defer PutScratch(sc)
		}
		for {
			i := int(next.Add(1)) - 1
			if i >= n || panicked.Load() || (ctx != nil && ctx.Err() != nil) {
				return
			}
			if scratch {
				sc.reset()
			}
			fn(i, sc)
		}
	}
	wg.Add(w)
	for k := 0; k < w; k++ {
		go body()
	}
	wg.Wait()
	if panicked.Load() {
		panic(*panicVal.Load().(*any))
	}
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}

// ExchangeCtx assembles the inboxes of one simulated communication round:
// out[src][dst] is the message source server src sends to destination
// dst, and shard dst of the result is the concatenation of
// out[0][dst], out[1][dst], ... in ascending src order (message order
// preserved), exactly as in serial execution. Each destination's inbox
// is built by a single worker into a buffer it owns, so the function
// involves no shared-slice writes; destinations with no incoming units
// keep a nil shard.
//
// recv[dst] is the number of units destination dst received. It is
// written once per destination before the join barrier and read by the
// caller only after ExchangeCtx returns, making the metering aggregation
// (max → MaxLoad, sum → TotalComm) independent of scheduling.
//
// A nil (or empty) out[src] row means source src sends nothing this
// round; sparse senders (boundary fix-ups) use
// this to avoid materializing p empty destination rows per silent
// source. ExchangeCtx validates only pDst-conformance of out's rows that
// it touches; callers perform shape validation (with their own panic
// messages) before calling.
//
// Cancellation is cooperative (the semantics of ForEachShardCtx; a nil
// ctx is never cancelled): on cancellation the partially assembled shards
// are abandoned and ctx.Err() is returned; the caller must not use them.
// This is the round barrier a cancelled query stops at.
func ExchangeCtx[T any](ctx context.Context, rt *Runtime, pDst int, out [][][]T) (shards [][]T, recv []int64, err error) {
	shards = make([][]T, pDst)
	recv = make([]int64, pDst)
	err = rt.ForEachShardCtx(ctx, pDst, func(dst int) {
		total := 0
		for src := range out {
			if len(out[src]) == 0 {
				continue
			}
			total += len(out[src][dst])
		}
		if total == 0 {
			return
		}
		inbox := make([]T, 0, total)
		for src := range out {
			if len(out[src]) == 0 {
				continue
			}
			inbox = append(inbox, out[src][dst]...)
		}
		shards[dst] = inbox
		recv[dst] = int64(total)
	})
	if err != nil {
		return nil, nil, err
	}
	return shards, recv, nil
}
