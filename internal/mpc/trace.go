package mpc

import (
	"slices"
	"sync"
)

// trace.go is the round-level observability layer of the metering core.
// Stats collapses an execution into four aggregates; a Tracer, attached to
// an execution scope (Exec.WithTracer), additionally records one RoundTrace
// per metered exchange — which primitive moved data, how the received load
// distributed over the destination servers, and how much was sent — without
// perturbing results or Stats in any way. Tracing is strictly opt-in: a
// scope without a tracer pays one nil check per round and allocates
// nothing, so the allocation regression tests over the untraced kernels
// hold unchanged.

// RoundTrace describes one metered communication round: the primitive that
// ran it and the distribution of per-server received load. Loads are in the
// model's units (tuples / semiring elements / O(log N)-bit integers);
// Bytes approximates the wire volume as TotalUnits × sizeof(element).
type RoundTrace struct {
	// Round is the 1-based index of this exchange in execution order. It
	// counts physical exchanges; Stats.Rounds can be smaller because Par
	// merges rounds of sub-algorithms running on disjoint server groups.
	Round int `json:"round"`
	// Op names the primitive (or engine phase) that ran the round, e.g.
	// "route", "sort.partition", "matmul.os.gridA". Unlabeled exchanges
	// report "exchange".
	Op string `json:"op"`
	// Servers is the destination server count of the round; Receivers is
	// how many of them received at least one unit.
	Servers   int `json:"servers"`
	Receivers int `json:"receivers"`
	// MaxLoad / P50Load / P99Load are nearest-rank quantiles of the
	// per-server received-load distribution (over all destination servers,
	// zero-receivers included). MaxLoad matches the round's contribution to
	// Stats.MaxLoad.
	MaxLoad int `json:"max_load"`
	P50Load int `json:"p50_load"`
	P99Load int `json:"p99_load"`
	// MeanLoad is TotalUnits / Servers; Imbalance is MaxLoad / MeanLoad (1
	// is a perfectly balanced round; 0 when nothing moved). The paper's
	// bounds constrain MaxLoad, so Imbalance is the skew diagnostic: a
	// round with high Imbalance is where a load bound would break first.
	MeanLoad  float64 `json:"mean_load"`
	Imbalance float64 `json:"imbalance"`
	// TotalUnits is the round's total communication (= its contribution to
	// Stats.TotalComm); Bytes approximates it in bytes of element payload.
	TotalUnits int64 `json:"total_units"`
	Bytes      int64 `json:"bytes"`
}

// Tracer accumulates RoundTraces for one execution. Attach with
// Exec.WithTracer before placing data; read with Rounds after the
// execution returns. A Tracer must not be shared by two concurrent
// executions (each would interleave rounds into the other's timeline);
// the mutex only orders rounds of sub-algorithms within one execution.
type Tracer struct {
	mu     sync.Mutex
	op     string
	rounds []RoundTrace
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Rounds returns a copy of the recorded per-round traces, in execution
// order.
func (t *Tracer) Rounds() []RoundTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.rounds)
}

// Reset clears the recorded rounds (and any pending op label), so one
// tracer can observe several sequential executions.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.rounds = t.rounds[:0]
	t.op = ""
	t.mu.Unlock()
}

// TraceOp labels the next metered exchange of ex's tracer with op. The
// first label set before a round wins — an outer primitive (or an engine
// phase) that labels before delegating to an inner one keeps its more
// specific name — and the label is consumed by the round it describes.
// A nil scope or an untraced scope ignores the call, so primitives label
// unconditionally at zero cost on the untraced path. A fault plane on
// the scope receives the same label, so FaultEvents name the primitive
// whose round they perturbed.
func TraceOp(ex *Exec, op string) {
	if ex == nil {
		return
	}
	if ex.tr != nil {
		ex.tr.setOp(op)
	}
	if ex.fp != nil {
		ex.fp.setOp(op)
	}
}

func (t *Tracer) setOp(op string) {
	t.mu.Lock()
	if t.op == "" {
		t.op = op
	}
	t.mu.Unlock()
}

// record appends one round computed from the per-destination received
// counts; called by exchange after the round barrier, so the
// distribution it sees is the deterministic post-barrier metering.
func (t *Tracer) record(recv []int64, elemBytes int64) {
	if len(recv) == 0 {
		return
	}
	loads := slices.Clone(recv)
	slices.Sort(loads)
	var total int64
	receivers := 0
	for _, n := range recv {
		total += n
		if n > 0 {
			receivers++
		}
	}
	rt := RoundTrace{
		Servers:    len(recv),
		Receivers:  receivers,
		MaxLoad:    int(loads[len(loads)-1]),
		P50Load:    int(quantile(loads, 0.50)),
		P99Load:    int(quantile(loads, 0.99)),
		TotalUnits: total,
		Bytes:      total * elemBytes,
	}
	rt.MeanLoad = float64(total) / float64(len(recv))
	if total > 0 {
		rt.Imbalance = float64(rt.MaxLoad) / rt.MeanLoad
	}
	t.mu.Lock()
	rt.Round = len(t.rounds) + 1
	rt.Op = t.op
	if rt.Op == "" {
		rt.Op = "exchange"
	}
	t.op = ""
	t.rounds = append(t.rounds, rt)
	t.mu.Unlock()
}

// quantile is the nearest-rank q-quantile of a sorted slice.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
