// Package mpc simulates the Massively Parallel Computation (MPC) model of
// Beame, Koutris and Suciu on a single machine, with exact cost metering.
//
// The model: p servers joined by a complete network compute in synchronous
// rounds. In a round every server receives messages, performs arbitrary
// local computation, and sends messages. The cost of an algorithm is its
// number of rounds together with its load L — the maximum number of units
// received by any server in any round, where one unit is one tuple, one
// semiring element, or one O(log N)-bit integer.
//
// The simulator is deterministic and physical: datasets are really
// partitioned into per-server shards (Part), and every primitive moves data
// only through ExchangeIn, which meters per-destination received units. Local
// computation is unmetered, exactly as in the model.
//
// Cost composition follows the model's semantics: steps executed one after
// another add rounds (Seq); independent sub-algorithms executed on disjoint
// server groups in the same phase run simultaneously, so their costs merge
// by taking the maximum rounds and maximum load (Par). Paper algorithms
// that "allocate p_i servers to subquery i" lay the groups out as blocks of
// a Layout and route each subquery's input to its block in one metered
// global exchange (RouteBlocks), then Par-merge the groups' costs. Overlay
// (Reshape is its one-Part case) hosts the virtual servers on p.
//
// Where the paper allocates c·p servers for a constant c > 1 (e.g. the sum
// of ⌈·⌉ allocations), the simulator uses that many virtual servers; the
// reported load is the maximum over virtual servers, which matches the
// paper's accounting up to the same constant factors its analysis hides.
//
// Execution vs. model: primitives run their per-server work on the
// execution runtime of the scope (Exec) their input Parts carry — each
// execution owns its runtime and cancellation context, and the scope flows
// from the initial placement (DistributeIn) through every derived Part, so
// concurrent executions with different worker counts never interact. A nil
// scope is the serial runtime. The runtime affects only wall-clock time;
// results and Stats are bit-for-bit identical across runtimes, because
// per-server work is independent within a round and all cross-server
// assembly (the exchange barrier) is owned per destination with metering
// aggregated after the round barrier. Per-element callbacks passed to
// primitives must therefore be safe for concurrent invocation across
// servers (pure functions and read-only captures qualify).
package mpc

import (
	"fmt"
	"slices"
	"unsafe"

	xrt "mpcjoin/internal/runtime"
)

// Stats is the metered cost of an MPC computation fragment.
type Stats struct {
	// Rounds is the number of communication rounds.
	Rounds int
	// MaxLoad is the maximum number of units received by any server in any
	// single round. This is the model's load L: per-round, so sequential
	// composition takes the max across steps, not the sum (a server that
	// receives N/p units in each of 3 rounds has load N/p, not 3N/p).
	MaxLoad int
	// TotalComm is the total number of units sent over the network across
	// all rounds and servers.
	TotalComm int64
	// SumLoad is the sum over rounds of that round's maximum per-server
	// received volume — the total-volume counterpart of MaxLoad. For a
	// single exchange SumLoad == MaxLoad; sequential steps add it while
	// MaxLoad maxes. Use it for total-traffic analyses (e.g. how much a
	// bottleneck server receives over a whole algorithm); MaxLoad remains
	// the quantity the paper's bounds are stated in.
	SumLoad int64
}

// Seq composes costs of steps executed one after another: rounds and
// SumLoad accumulate, while MaxLoad takes the max across steps because the
// model defines load per round — Seq(a, b) costs a.Rounds+b.Rounds rounds
// at load max(a.MaxLoad, b.MaxLoad), exactly how the paper composes "run X,
// then Y" (e.g. Lemma 1's O(1)-round primitives chained at load O(N/p)).
func Seq(ss ...Stats) Stats {
	var out Stats
	for _, s := range ss {
		out.Rounds += s.Rounds
		if s.MaxLoad > out.MaxLoad {
			out.MaxLoad = s.MaxLoad
		}
		out.TotalComm += s.TotalComm
		out.SumLoad += s.SumLoad
	}
	return out
}

// Par composes costs of sub-algorithms that run simultaneously on disjoint
// server groups: rounds and MaxLoad take the max (the groups share the
// rounds), TotalComm adds, and SumLoad takes the max — each round's
// bottleneck server is the worst over the groups, and summing per-group
// bottlenecks would double-count rounds the groups share.
func Par(ss ...Stats) Stats {
	var out Stats
	for _, s := range ss {
		if s.Rounds > out.Rounds {
			out.Rounds = s.Rounds
		}
		if s.MaxLoad > out.MaxLoad {
			out.MaxLoad = s.MaxLoad
		}
		out.TotalComm += s.TotalComm
		if s.SumLoad > out.SumLoad {
			out.SumLoad = s.SumLoad
		}
	}
	return out
}

// Part is a dataset partitioned across p servers; Shards[i] is server i's
// local fragment. A Part's server count is fixed at creation. A Part also
// carries the execution scope (Exec) that created it — primitives read
// their runtime and cancellation context from their input Parts and stamp
// the scope onto their outputs, so the scope flows with the dataflow.
type Part[T any] struct {
	Shards [][]T

	// ex is the execution scope; nil is the serial, never-cancelled scope
	// (see Exec).
	ex *Exec
}

// NewPartIn returns an empty Part over p servers belonging to the given
// execution scope.
func NewPartIn[T any](ex *Exec, p int) Part[T] {
	if p <= 0 {
		panic(fmt.Sprintf("mpc: invalid server count %d", p))
	}
	return Part[T]{Shards: make([][]T, p), ex: ex}
}

// P returns the number of servers the Part spans.
func (pt Part[T]) P() int { return len(pt.Shards) }

// Len returns the total number of elements across all shards.
func (pt Part[T]) Len() int {
	n := 0
	for _, s := range pt.Shards {
		n += len(s)
	}
	return n
}

// MaxShard returns the largest shard size — the storage load of the Part.
func (pt Part[T]) MaxShard() int {
	m := 0
	for _, s := range pt.Shards {
		if len(s) > m {
			m = len(s)
		}
	}
	return m
}

// DistributeIn splits data round-robin across p servers of the execution
// scope ex, modelling the model's assumption that input starts evenly
// distributed (N/p per server); the scope then flows to every Part derived
// from the placement. It is the uncounted initial placement, not a
// communication step. Each shard is a defensive copy, so the caller may
// keep mutating data; when the caller hands ownership instead,
// DistributeOwnedIn skips the copies.
func DistributeIn[T any](ex *Exec, data []T, p int) Part[T] {
	return distributeIn(ex, data, p, true)
}

// DistributeOwnedIn is DistributeIn without the per-shard defensive copy:
// shards alias sub-slices of data. The caller transfers ownership — it
// must not mutate data afterwards, and must tolerate primitives
// reordering elements within it (local in-place sorts). Use it on
// freshly built inputs that are handed to exactly one placement (spmv's
// edge and entry lists); keep DistributeIn for inputs that are reused or
// shared.
func DistributeOwnedIn[T any](ex *Exec, data []T, p int) Part[T] {
	return distributeIn(ex, data, p, false)
}

func distributeIn[T any](ex *Exec, data []T, p int, copyShards bool) Part[T] {
	pt := NewPartIn[T](ex, p)
	if len(data) == 0 {
		return pt
	}
	per := (len(data) + p - 1) / p
	for i := 0; i < p; i++ {
		lo := i * per
		if lo >= len(data) {
			break
		}
		hi := lo + per
		if hi > len(data) {
			hi = len(data)
		}
		if copyShards {
			pt.Shards[i] = append([]T(nil), data[lo:hi]...)
		} else {
			pt.Shards[i] = data[lo:hi:hi]
		}
	}
	return pt
}

// Collect gathers all shards into one slice. It models reading off the
// final distributed output for verification and is not a metered step:
// query answers are allowed to remain distributed in the MPC model.
func Collect[T any](pt Part[T]) []T {
	out := make([]T, 0, pt.Len())
	for _, s := range pt.Shards {
		out = append(out, s...)
	}
	return out
}

// ExchangeIn performs one communication round inside the execution scope
// ex. out[src][dst] holds the units server src sends to server dst; the
// result's shard dst is the concatenation over src (in src order,
// preserving order within each message). A nil out[src] row means server
// src sends nothing — sparse senders (a move of boundary runs) need not
// materialize p empty destinations. The returned Stats has Rounds=1 and
// MaxLoad equal to the largest per-destination received volume. When every
// source sends one slice to every destination (Broadcast's shape), every
// destination's shard may be the same slice: such a round's result is
// read-only.
//
// The round runs on the scope's runtime (one worker per destination; see
// internal/runtime.ExchangeCtx for why the result and metering are
// identical to serial execution), observes its cancellation, and the
// resulting Part carries the scope.
func ExchangeIn[T any](ex *Exec, p int, out [][][]T) (Part[T], Stats) {
	if len(out) != p {
		panic(fmt.Sprintf("mpc: Exchange expects %d source servers, got %d", p, len(out)))
	}
	return ExchangeToIn(ex, p, out)
}

// ExchangeToIn performs one communication round from the current server
// set onto a (possibly different-sized) destination server set:
// out[src][dst] with len(out) source servers and pDst destinations per
// source (nil rows allowed, as in ExchangeIn). Outside ExchangeIn and the
// sample sort's partition round its one caller is RouteBlocks, the
// routing round of "allocate p_i servers to subquery i" steps (see
// sortguard_test.go).
func ExchangeToIn[T any](ex *Exec, pDst int, out [][][]T) (Part[T], Stats) {
	for src := range out {
		if len(out[src]) != pDst && len(out[src]) != 0 {
			panic(fmt.Sprintf("mpc: Exchange source %d has %d destinations, want %d", src, len(out[src]), pDst))
		}
	}
	return exchange(ex, pDst, out)
}

// exchange is the round barrier of the simulator — the one place data
// moves between servers, and so the one place the meter, the tracer, the
// fault plane and the transport meet (shape already validated by the
// caller). It builds the round's manifest from the outboxes, which are
// also its checkpoint because no carrier mutates them, then loops:
// decide this attempt's faults, carry the round, verify the delivered
// counts against the manifest, account the attempt, and either return,
// retry from the checkpoint, or abort.
//
// A scope without a fault plane runs the same loop with nothing injected
// and a retry budget of 0, so a short delivery there is a transport error;
// under a plane it is retried and, past the budget, aborts with a
// *FaultBudgetError. Both unwind through the sentinel and surface as
// errors at the execution root. The carrier is the scope's wire when it
// has one (carryWire) and in-process assembly otherwise (carryInProc).
//
// The attempt that succeeds moves exactly the units the outboxes hold, so
// Stats and the trace record of a recovered round are bit-identical to a
// fault-free execution on either carrier, for any worker count; everything
// fault-related is accounted on the plane. The barrier is also the
// canonical cancellation point: a done context is observed before every
// attempt and during assembly.
func exchange[T any](ex *Exec, pDst int, out [][][]T) (Part[T], Stats) {
	fp := ex.Faults()
	round, op, budget := fp.beginRound()

	// Manifest: the units each destination must receive and the number of
	// non-empty messages (the drop candidates, in src-major order), in one
	// row-major pass over the outboxes. The vector comes from the scratch
	// pool, so a fault-free round allocates nothing for being verified.
	sc := xrt.GetScratch()
	defer xrt.PutScratch(sc)
	expected, nMsgs := sc.Ints(pDst), 0
	for src := range out {
		for dst, m := range out[src] {
			if len(m) > 0 {
				expected[dst] += len(m)
				nMsgs++
			}
		}
	}
	carry, seq := carryInProc[T], int64(0)
	if ex != nil && ex.wire != nil {
		// One wire sequence number per logical round; retry attempts
		// re-present the same Seq with a higher Attempt, which is how a
		// peer distinguishes "resend from the checkpoint" from progress.
		carry, seq = carryWire[T], ex.nextWireSeq()
	}

	for attempt := 0; ; attempt++ {
		inj := fp.decide(round, attempt, pDst, nMsgs)
		if inj.dropIdx >= 0 {
			inj.dropped = roundMessages(out, nil)[inj.dropIdx]
		}
		ex.checkpoint()
		shards, recv, lost := carry(ex, seq, attempt, pDst, out, inj)

		// Post-round barrier: the failure detector sees a crashed server,
		// and count verification against the manifest sees everything else
		// that went missing — an injected drop or a transport that lost
		// data on its own.
		kind, short := "", -1
		if inj.crash >= 0 {
			kind = "crash"
		}
		for dst := 0; kind == "" && dst < pDst; dst++ {
			if recv[dst] != int64(expected[dst]) {
				kind, short = "drop", dst
			}
		}

		retrying := kind != "" && attempt < budget
		fp.observe(round, op, attempt, inj, lost, retrying)
		if kind == "" {
			if tr := ex.Tracer(); tr != nil {
				var zero T
				tr.record(recv, int64(unsafe.Sizeof(zero)))
			}
			return Part[T]{Shards: shards, ex: ex}, recvStats(recv)
		}
		if retrying {
			continue
		}
		if fp == nil {
			wireError(fmt.Errorf("destination %d received %d of %d units with no fault plane to retry",
				short, recv[short], expected[short]))
		}
		panic(canceled{&FaultBudgetError{Round: round, Op: op, Attempts: attempt + 1, Kind: kind}})
	}
}

// carryInProc is the in-process carrier: one attempt assembled on the
// scope's runtime, with the attempt's faults applied to its result (seq
// and attempt only matter to a wire). A dropped message is withheld from
// assembly through a view that shallow-copies the affected source row
// only; a crashed destination dies mid-round and its assembled inbox is
// lost with everything in it. A broadcast round's inboxes are all the same
// concatenation, so without a drop it is assembled once (sharedInbox).
func carryInProc[T any](ex *Exec, _ int64, _, pDst int, out [][][]T, inj injection) (shards [][]T, recv []int64, lost int64) {
	if inj.dropIdx >= 0 {
		m := inj.dropped
		out = slices.Clone(out)
		out[m.From] = slices.Clone(out[m.From])
		out[m.From][m.To] = nil
	}
	if inj.dropIdx < 0 && oneMessageEach(out) {
		shards, recv = sharedInbox(pDst, out)
	} else {
		var err error
		if shards, recv, err = xrt.ExchangeCtx(ex.Context(), ex.runtime(), pDst, out); err != nil {
			panic(canceled{err})
		}
	}
	if inj.crash >= 0 {
		lost = recv[inj.crash]
		shards[inj.crash] = nil
		recv[inj.crash] = 0
	}
	return shards, recv, lost
}

// oneMessageEach reports whether every source sends one slice — the same
// backing array and length — to every destination, the shape Broadcast
// builds. Only there is every destination's inbox the same concatenation.
func oneMessageEach[T any](out [][][]T) bool {
	for _, row := range out {
		for _, m := range row {
			if len(m) != len(row[0]) || unsafe.SliceData(m) != unsafe.SliceData(row[0]) {
				return false
			}
		}
	}
	return true
}

// sharedInbox assembles a broadcast round (oneMessageEach) once: every
// destination's shard is the same read-only slice, and each destination's
// received count is its length, so metering and the manifest check stay
// per destination. The barrier checked cancellation just before.
func sharedInbox[T any](pDst int, out [][][]T) (shards [][]T, recv []int64) {
	total := 0
	for _, row := range out {
		if len(row) > 0 {
			total += len(row[0])
		}
	}
	shards, recv = make([][]T, pDst), make([]int64, pDst)
	if total == 0 {
		return shards, recv
	}
	inbox := make([]T, 0, total)
	for _, row := range out {
		if len(row) > 0 {
			inbox = append(inbox, row[0]...)
		}
	}
	for dst := range shards {
		shards[dst], recv[dst] = inbox, int64(total)
	}
	return shards, recv
}

// recvStats folds a round's per-destination received counts into Stats.
func recvStats(recv []int64) Stats {
	st := Stats{Rounds: 1}
	for _, n := range recv {
		if int(n) > st.MaxLoad {
			st.MaxLoad = int(n)
		}
		st.TotalComm += n
	}
	st.SumLoad = int64(st.MaxLoad)
	return st
}

// Route performs one exchange where each element is sent to the server
// chosen by dest (given the element's current server and the element).
// The per-source outbox builds run on the scope's runtime, so dest must be
// safe for concurrent calls across source servers (pure functions and
// read-only captures are; it is invoked serially within one source, in
// element order).
func Route[T any](pt Part[T], dest func(src int, x T) int) (Part[T], Stats) {
	p := pt.P()
	ex := pt.scope()
	TraceOp(ex, "route")
	out := make([][][]T, p)
	ex.ForEachShardScratch(p, func(src int, sc *xrt.Scratch) {
		shard := pt.Shards[src]
		if len(shard) == 0 {
			return
		}
		// dest is invoked exactly once per element; the memoized
		// destinations drive a single-pass placement.
		dests := sc.Ints(len(shard))
		for j, x := range shard {
			dests[j] = dest(src, x)
		}
		out[src] = buildOutboxDests(sc, p, "Route", dests, shard)
	})
	return ExchangeIn(ex, p, out)
}

// Broadcast replicates the elements of pt to every server: afterwards each
// shard holds all elements (in server, then local order). One round; the
// load is the total element count. The shards are read-only and may share
// storage: the in-process carrier assembles the inbox once and hands every
// server the same slice.
func Broadcast[T any](pt Part[T]) (Part[T], Stats) {
	p := pt.P()
	TraceOp(pt.scope(), "broadcast")
	out := make([][][]T, p)
	for src := range out {
		out[src] = make([][]T, p)
		for dst := 0; dst < p; dst++ {
			out[src][dst] = pt.Shards[src]
		}
	}
	return ExchangeIn(pt.scope(), p, out)
}

// Map applies f to every element locally; zero rounds, zero load. The
// per-shard loops run on the scope's runtime, so f must be safe for
// concurrent calls across servers (as must the callbacks of Filter and
// MapShards — within one server they run serially in element order).
func Map[T, U any](pt Part[T], f func(T) U) Part[U] {
	out := NewPartIn[U](pt.scope(), pt.P())
	pt.scope().ForEachShard(pt.P(), func(i int) {
		shard := pt.Shards[i]
		if len(shard) == 0 {
			return
		}
		us := make([]U, len(shard))
		for j, x := range shard {
			us[j] = f(x)
		}
		out.Shards[i] = us
	})
	return out
}

// Filter keeps the elements satisfying pred; local, zero cost.
func Filter[T any](pt Part[T], pred func(T) bool) Part[T] {
	out := NewPartIn[T](pt.scope(), pt.P())
	pt.scope().ForEachShard(pt.P(), func(i int) {
		var keep []T
		for _, x := range pt.Shards[i] {
			if pred(x) {
				keep = append(keep, x)
			}
		}
		out.Shards[i] = keep
	})
	return out
}

// Split is Map with two outputs: f gives each element's image and whether
// the first output takes it (the second otherwise); both keep element
// order. Local, zero cost, one call of f per element.
func Split[T, U any](pt Part[T], f func(T) (U, bool)) (yes, no Part[U]) {
	yes, no = NewPartIn[U](pt.scope(), pt.P()), NewPartIn[U](pt.scope(), pt.P())
	pt.scope().ForEachShard(pt.P(), func(i int) {
		for _, x := range pt.Shards[i] {
			if u, first := f(x); first {
				yes.Shards[i] = append(yes.Shards[i], u)
			} else {
				no.Shards[i] = append(no.Shards[i], u)
			}
		}
	})
	return yes, no
}

// MapShards applies f to each shard locally (f receives the server index).
// This is how algorithm packages run their per-server local joins: the
// shard closures execute concurrently on the scope's runtime, one call
// per server, each owning its output slice.
func MapShards[T, U any](pt Part[T], f func(server int, shard []T) []U) Part[U] {
	out := NewPartIn[U](pt.scope(), pt.P())
	pt.scope().ForEachShard(pt.P(), func(i int) {
		out.Shards[i] = f(i, pt.Shards[i])
	})
	return out
}

// Concat places the groups' shards side by side into one Part spanning the
// sum of their server counts. It models sub-algorithm outputs staying on
// the (disjoint) server groups that produced them: no communication.
func Concat[T any](groups ...Part[T]) Part[T] {
	total := 0
	var ex *Exec
	for _, g := range groups {
		total += g.P()
		if ex == nil {
			ex = g.scope()
		}
	}
	out := NewPartIn[T](ex, total)
	at := 0
	for _, g := range groups {
		for _, s := range g.Shards {
			out.Shards[at] = s
			at++
		}
	}
	return out
}

// Reshape reinterprets a Part over a different server count: it is
// Overlay of the one Part, so shard i of the input lands on shard i mod p
// of the output, and a Part already on p servers is returned unchanged. It
// costs nothing because "virtual servers" allocated by sub-algorithms
// (RouteBlocks' grids, bins and subquery blocks) are hosted by the p
// physical servers; Reshape merely fixes the hosting map after the fact.
// The metering convention is unchanged: loads are measured per virtual
// server, an undercount of at most the constant co-location factor
// ⌈P_virtual/p⌉ that the paper's own O(p)-allocation analysis hides as
// well.
func Reshape[T any](pt Part[T], p int) Part[T] {
	if pt.P() == p {
		return pt
	}
	return Overlay(pt.scope(), p, pt)
}

// Rebalance spreads pt's elements evenly (round-robin by global arrival
// order: server-major, then local order) across its servers in one metered
// round. Useful after filters that leave skewed shards. Destinations are
// computed from per-server prefix offsets rather than a shared counter, so
// the outbox build parallelizes with the same assignment serial round-robin
// would produce.
func Rebalance[T any](pt Part[T]) (Part[T], Stats) {
	p := pt.P()
	TraceOp(pt.scope(), "rebalance")
	base := make([]int, p)
	at := 0
	for s, shard := range pt.Shards {
		base[s] = at
		at += len(shard)
	}
	out := make([][][]T, p)
	ex := pt.scope()
	ex.ForEachShard(p, func(src int) {
		shard := pt.Shards[src]
		n := len(shard)
		if n == 0 {
			return
		}
		// Round-robin destinations are pure arithmetic, so the outbox is
		// built analytically in one pass: destination d receives exactly
		// the elements at positions j ≡ (d − base[src]) (mod p), a strided
		// gather into contiguous segments of one backing buffer. The
		// buffer layout and element order are bit-identical to what a
		// counted build of (base[src]+j) mod p produces, without paying a
		// modulo — or any per-element destination work — at all.
		row := make([][]T, p)
		buf := make([]T, n)
		b := base[src] % p
		at := 0
		for d := 0; d < p; d++ {
			j0 := d - b
			if j0 < 0 {
				j0 += p
			}
			if j0 >= n {
				continue
			}
			c := (n - j0 + p - 1) / p
			seg := buf[at : at+c : at+c]
			at += c
			for i, j := 0, j0; j < n; i, j = i+1, j+p {
				seg[i] = shard[j]
			}
			row[d] = seg
		}
		out[src] = row
	})
	return ExchangeIn(ex, p, out)
}
