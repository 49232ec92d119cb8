package mpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// fault.go is the deterministic fault plane of the simulator: seeded
// injection of server failures at the exchange barrier, detection at the
// post-round barrier, and recovery by round-level checkpoint/retry.
//
// The MPC model assumes p flawless servers and perfect rounds; a serving
// system built on the simulator has to keep the Table 1 guarantees
// observable when servers straggle, crash, or drop messages. The fault
// plane makes imperfect rounds first-class while preserving the repo's
// core invariant — determinism: every injection decision is a pure
// function of (spec seed, round index, attempt index, round shape), so a
// given seed and fault spec produce the identical fault schedule, the
// identical retry counts, and — for schedules retry can absorb — results
// and base Stats that are bit-for-bit identical to a fault-free run, for
// every worker count.
//
// Failure model, per metered exchange (one simulated round):
//
//   - Straggler: one destination server is slow. The synchronous barrier
//     waits it out, so nothing is lost and nothing re-runs; the simulated
//     delay is accounted in the FaultReport (not in Stats, which the
//     model defines purely in units moved).
//   - Crash: one destination server dies mid-round and its inbox is lost.
//     The barrier's failure detector observes the death; the round is
//     re-executed from its checkpoint.
//   - Drop: one message (the units one source sends one destination) is
//     lost in the network. Detection is by count verification: the
//     post-round barrier compares per-destination received units against
//     the pre-round outbox totals.
//
// Recovery is round-level checkpoint/retry: the outboxes handed to the
// exchange ARE the checkpoint (assembly never mutates them), so a failed
// round is re-executed from the same outboxes, up to the spec's retry
// budget, with deterministic exponential backoff accounted per attempt.
// A round that stays faulty past the budget aborts the execution with a
// *FaultBudgetError (errors.Is ErrFaultBudgetExceeded), delivered through
// the same panic-sentinel unwind as cancellation (see Exec) and recovered
// into an ordinary error at the execution root.

// ErrFaultBudgetExceeded reports an execution aborted because one round
// stayed faulty through every retry its fault spec allows. Returned
// (wrapped in a *FaultBudgetError) by execution roots; test with
// errors.Is.
var ErrFaultBudgetExceeded = errors.New("mpc: fault budget exceeded")

// FaultBudgetError is the typed failure of a round that exhausted its
// retry budget.
type FaultBudgetError struct {
	// Round is the 1-based physical round (exchange) that kept failing.
	Round int
	// Op labels the primitive that drove the round ("route",
	// "sort.partition", …); "" when the exchange was unlabeled.
	Op string
	// Attempts is how many times the round executed (1 + retries).
	Attempts int
	// Kind is the fault kind detected on the final attempt ("crash" or
	// "drop").
	Kind string
}

func (e *FaultBudgetError) Error() string {
	op := e.Op
	if op == "" {
		op = "exchange"
	}
	return fmt.Sprintf("%v: round %d (%s) still faulty (%s) after %d attempts",
		ErrFaultBudgetExceeded, e.Round, op, e.Kind, e.Attempts)
}

func (e *FaultBudgetError) Unwrap() error { return ErrFaultBudgetExceeded }

// DefaultMaxRetries is the per-round retry budget when FaultSpec.MaxRetries
// is zero.
const DefaultMaxRetries = 3

// FaultSpec declares a deterministic fault schedule. The zero value
// injects nothing. All probabilities are per round attempt, drawn from a
// stream derived only from (Seed, round, attempt), never from global
// randomness — two executions with the same seed and spec see the same
// schedule.
type FaultSpec struct {
	// Seed drives the injection stream. Independent of the execution's
	// partitioning seed, so fault schedules can vary while the query
	// stays fixed (and vice versa).
	Seed uint64
	// StragglerProb is the per-round probability that one destination
	// server straggles; StragglerDelay is the simulated delay in model
	// time units it is late by (0 means 1). Stragglers are absorbed at
	// the barrier, never retried.
	StragglerProb  float64
	StragglerDelay int64
	// CrashProb is the per-attempt probability that one destination
	// server crashes mid-round, losing its inbox. CrashRound, when
	// positive, additionally crashes a server deterministically on the
	// first attempt of exactly that (1-based) physical round — the
	// reproducible "server dies at round k" experiment.
	CrashProb  float64
	CrashRound int
	// DropProb is the per-attempt probability that one message (one
	// source→destination transfer) is lost. Rounds that move nothing
	// have no messages to drop.
	DropProb float64
	// MaxRetries bounds re-executions per round: 0 means
	// DefaultMaxRetries, negative means no retries (any detected fault
	// exceeds the budget immediately).
	MaxRetries int
	// StopAfter, when positive, stops all injection after that many
	// physical rounds — useful to fault only an execution's prefix.
	StopAfter int
}

// Enabled reports whether the spec can inject anything.
func (s FaultSpec) Enabled() bool {
	return s.StragglerProb > 0 || s.CrashProb > 0 || s.CrashRound > 0 || s.DropProb > 0
}

// Validate rejects specs outside the model: probabilities must lie in
// [0, 1] and counts must be non-negative.
func (s FaultSpec) Validate() error {
	check := func(name string, p float64) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("mpc: fault spec: %s must be in [0, 1], got %v", name, p)
		}
		return nil
	}
	if err := check("straggler probability", s.StragglerProb); err != nil {
		return err
	}
	if err := check("crash probability", s.CrashProb); err != nil {
		return err
	}
	if err := check("drop probability", s.DropProb); err != nil {
		return err
	}
	if s.StragglerDelay < 0 {
		return fmt.Errorf("mpc: fault spec: straggler delay must be non-negative, got %d", s.StragglerDelay)
	}
	if s.CrashRound < 0 {
		return fmt.Errorf("mpc: fault spec: crash round must be non-negative, got %d", s.CrashRound)
	}
	if s.StopAfter < 0 {
		return fmt.Errorf("mpc: fault spec: stop-after must be non-negative, got %d", s.StopAfter)
	}
	return nil
}

// retries resolves the per-round retry budget.
func (s FaultSpec) retries() int {
	switch {
	case s.MaxRetries > 0:
		return s.MaxRetries
	case s.MaxRetries < 0:
		return 0
	}
	return DefaultMaxRetries
}

// FaultEvent is one injected fault.
type FaultEvent struct {
	// Round is the 1-based physical round; Attempt the 0-based execution
	// attempt of that round the fault was injected into.
	Round   int `json:"round"`
	Attempt int `json:"attempt"`
	// Kind is "straggler", "crash" or "drop".
	Kind string `json:"kind"`
	// Op labels the primitive that drove the round (same labels as
	// RoundTrace.Op); "" when unlabeled.
	Op string `json:"op,omitempty"`
	// Server is the affected destination server; Src the source of a
	// dropped message (-1 otherwise).
	Server int `json:"server"`
	Src    int `json:"src"`
	// Units is what the fault cost: units lost (crash, drop) or
	// simulated delay units (straggler).
	Units int64 `json:"units"`
	// Retried reports whether the fault triggered a re-execution
	// (stragglers never do; crashes and drops always do, budget
	// permitting).
	Retried bool `json:"retried"`
}

// maxFaultEvents caps the per-execution event log; floods beyond it are
// summarized by FaultReport.EventsTruncated so a chaos soak cannot
// balloon memory.
const maxFaultEvents = 512

// FaultReport is what an execution's fault plane injected, detected and
// retried. Faults never change results or base Stats (for schedules the
// retry budget absorbs); everything fault-related is accounted here.
type FaultReport struct {
	// Rounds is the number of physical rounds the plane observed.
	Rounds int `json:"rounds"`
	// Injected counts injected faults of all kinds; Stragglers, Crashes
	// and Drops break it down.
	Injected   int `json:"injected"`
	Stragglers int `json:"stragglers"`
	Crashes    int `json:"crashes"`
	Drops      int `json:"drops"`
	// Detected counts faults caught by the post-round barrier (crashes
	// via the failure detector, drops via count verification); Absorbed
	// counts stragglers waited out in place.
	Detected int `json:"detected"`
	Absorbed int `json:"absorbed"`
	// Retried is the number of round re-executions; RetriedRounds the
	// number of distinct rounds that needed at least one.
	Retried       int `json:"retried"`
	RetriedRounds int `json:"retried_rounds"`
	// DelayUnits is total simulated straggler delay; BackoffUnits the
	// deterministic exponential backoff charged across retries
	// (2^(attempt-1) per retry, capped per attempt at 2^16).
	DelayUnits   int64 `json:"delay_units"`
	BackoffUnits int64 `json:"backoff_units"`
	// Events is the injection log in round order, capped at
	// maxFaultEvents; EventsTruncated counts events beyond the cap.
	Events          []FaultEvent `json:"events,omitempty"`
	EventsTruncated int          `json:"events_truncated,omitempty"`
}

// FaultPlane injects the spec's faults into one execution and accounts
// what happened. Attach with Exec.WithFaults before placing data; read
// the outcome with Report after the execution returns. Like a Tracer, a
// plane must not be shared by two concurrent executions — each would
// perturb the other's round numbering and therefore its schedule.
type FaultPlane struct {
	spec  FaultSpec
	round atomic.Int64 // physical rounds begun

	mu  sync.Mutex
	op  string // pending first-set-wins op label (see TraceOp)
	rep FaultReport
}

// NewFaultPlane returns a plane injecting spec. The spec must be valid
// (Validate); API boundaries (mpcjoin, the query service) validate before
// constructing, so an invalid spec here is a programmer error and panics.
func NewFaultPlane(spec FaultSpec) *FaultPlane {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &FaultPlane{spec: spec}
}

// Spec returns the plane's fault spec.
func (fp *FaultPlane) Spec() FaultSpec { return fp.spec }

// Report returns a copy of the plane's accounting so far.
func (fp *FaultPlane) Report() FaultReport {
	if fp == nil {
		return FaultReport{}
	}
	fp.mu.Lock()
	defer fp.mu.Unlock()
	rep := fp.rep
	rep.Events = append([]FaultEvent(nil), fp.rep.Events...)
	return rep
}

// Reset clears the accounting and the round counter so one plane can
// observe several sequential executions (each restarting the schedule).
func (fp *FaultPlane) Reset() {
	fp.mu.Lock()
	fp.rep = FaultReport{}
	fp.op = ""
	fp.mu.Unlock()
	fp.round.Store(0)
}

// beginRound claims the next physical round index, consumes the pending
// op label (set by TraceOp, first-set-wins — the same labeling protocol
// the Tracer uses, so fault events carry the primitive names engines
// already emit) and resolves the round's retry budget. A nil plane is the
// flawless cluster: no round numbering, nothing injected, budget 0.
func (fp *FaultPlane) beginRound() (round int, op string, budget int) {
	if fp == nil {
		return 0, "", 0
	}
	round = int(fp.round.Add(1))
	fp.mu.Lock()
	op = fp.op
	fp.op = ""
	fp.rep.Rounds = round
	fp.mu.Unlock()
	return round, op, fp.spec.retries()
}

func (fp *FaultPlane) setOp(op string) {
	fp.mu.Lock()
	if fp.op == "" {
		fp.op = op
	}
	fp.mu.Unlock()
}

// injection is one attempt's decided faults; -1 fields mean "none".
type injection struct {
	straggler int     // destination server that straggles
	delay     int64   // its simulated delay units
	crash     int     // destination server that crashes
	dropIdx   int     // index into the round's non-empty messages
	dropped   WireMsg // the message dropIdx names, resolved by the barrier
}

// decide computes the faults injected into one (round, attempt). It is a
// pure function of the spec, the indices and the round's deterministic
// shape (destination count and non-empty message count), which is what
// makes the whole schedule reproducible across worker counts: nothing here
// reads scheduling, time, or global randomness. Draws happen in a fixed
// order (straggler, crash, drop) from a stream keyed by (Seed, round,
// attempt). A nil plane decides nothing.
func (fp *FaultPlane) decide(round, attempt, pDst, nMsgs int) injection {
	inj := injection{straggler: -1, crash: -1, dropIdx: -1}
	if fp == nil {
		return inj
	}
	s := fp.spec
	if s.StopAfter > 0 && round > s.StopAfter {
		return inj
	}
	rng := faultRNG(s.Seed, uint64(round), uint64(attempt))
	if s.StragglerProb > 0 && rng.float() < s.StragglerProb {
		inj.straggler = rng.intn(pDst)
		inj.delay = s.StragglerDelay
		if inj.delay <= 0 {
			inj.delay = 1
		}
	}
	if s.CrashRound > 0 && round == s.CrashRound && attempt == 0 {
		inj.crash = rng.intn(pDst)
	} else if s.CrashProb > 0 && rng.float() < s.CrashProb {
		inj.crash = rng.intn(pDst)
	}
	if s.DropProb > 0 && nMsgs > 0 && rng.float() < s.DropProb {
		inj.dropIdx = rng.intn(nMsgs)
	}
	return inj
}

// observe accounts one executed attempt: which faults were injected,
// whether the barrier detected a failure, and whether a retry follows. A
// nil plane accounts nothing.
func (fp *FaultPlane) observe(round int, op string, attempt int, inj injection, lost int64, retrying bool) {
	if fp == nil {
		return
	}
	fp.mu.Lock()
	defer fp.mu.Unlock()
	add := func(ev FaultEvent) {
		fp.rep.Injected++
		if len(fp.rep.Events) < maxFaultEvents {
			ev.Round, ev.Attempt, ev.Op = round, attempt, op
			fp.rep.Events = append(fp.rep.Events, ev)
		} else {
			fp.rep.EventsTruncated++
		}
	}
	if inj.straggler >= 0 {
		fp.rep.Stragglers++
		fp.rep.Absorbed++
		fp.rep.DelayUnits += inj.delay
		add(FaultEvent{Kind: "straggler", Server: inj.straggler, Src: -1, Units: inj.delay})
	}
	if inj.crash >= 0 {
		fp.rep.Crashes++
		fp.rep.Detected++
		add(FaultEvent{Kind: "crash", Server: inj.crash, Src: -1, Units: lost, Retried: retrying})
	}
	if inj.dropIdx >= 0 {
		fp.rep.Drops++
		fp.rep.Detected++
		m := inj.dropped
		add(FaultEvent{Kind: "drop", Server: m.To, Src: m.From, Units: int64(m.Units), Retried: retrying})
	}
	if retrying {
		fp.rep.Retried++
		if attempt == 0 {
			fp.rep.RetriedRounds++
		}
		// Deterministic exponential backoff: retry a (0-based attempt a
		// failed) charges 2^a simulated units, capped so a long soak
		// cannot overflow the accounting.
		shift := attempt
		if shift > 16 {
			shift = 16
		}
		fp.rep.BackoffUnits += int64(1) << shift
	}
}

// splitmix is the splitmix64 stream the injection draws come from: tiny,
// seedable, and stateless across rounds by construction.
type splitmix struct{ s uint64 }

// faultRNG keys a stream to (seed, round, attempt) so every attempt of
// every round has its own independent, reproducible draw sequence.
func faultRNG(seed, round, attempt uint64) *splitmix {
	return &splitmix{s: seed ^ round*0x9e3779b97f4a7c15 ^ attempt*0xbf58476d1ce4e5b9}
}

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *splitmix) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}
